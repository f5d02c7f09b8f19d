//! Minimal WAV (RIFF PCM16) reading and writing.
//!
//! Lets simulated recordings round-trip through the exact file format a
//! phone app would log, and lets real captured WAVs be fed into the
//! pipeline. Only the variant that matters here is supported: linear PCM,
//! 16-bit, 1 or 2 channels. Byte handling is std-only — a small cursor
//! over `&[u8]` for reading and a `Vec<u8>` for writing.

use crate::quantize::{dequantize_i16, quantize_i16};
use crate::DspError;

/// An in-memory PCM16 WAV file.
#[derive(Debug, Clone, PartialEq)]
pub struct WavFile {
    /// Sample rate, hertz.
    pub sample_rate: u32,
    /// Channels, each the same length (1 = mono, 2 = stereo, ...).
    pub channels: Vec<Vec<f64>>,
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn tag(&mut self) -> Option<[u8; 4]> {
        self.take(4).map(|s| [s[0], s[1], s[2], s[3]])
    }

    fn u16_le(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32_le(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
}

impl WavFile {
    /// Creates a stereo file.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] for unequal channels,
    /// [`DspError::EmptyInput`] for empty channels and
    /// [`DspError::InvalidParameter`] for a zero sample rate.
    pub fn stereo(left: Vec<f64>, right: Vec<f64>, sample_rate: u32) -> Result<Self, DspError> {
        if left.len() != right.len() {
            return Err(DspError::LengthMismatch {
                left: left.len(),
                right: right.len(),
                what: "stereo wav channels",
            });
        }
        Self::validate(&[&left, &right], sample_rate)?;
        Ok(WavFile {
            sample_rate,
            channels: vec![left, right],
        })
    }

    fn validate(channels: &[&Vec<f64>], sample_rate: u32) -> Result<(), DspError> {
        if sample_rate == 0 {
            return Err(DspError::invalid("sample_rate", "must be positive"));
        }
        if channels.iter().any(|c| c.is_empty()) {
            return Err(DspError::EmptyInput {
                what: "wav samples",
            });
        }
        Ok(())
    }

    /// Frames per channel.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.channels.first().map_or(0, Vec::len)
    }

    /// Serializes to RIFF PCM16 bytes.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let num_channels = self.channels.len() as u16;
        let frames = self.len();
        let quantized: Vec<Vec<i16>> = self.channels.iter().map(|c| quantize_i16(c)).collect();
        let data_len = (frames * self.channels.len() * 2) as u32;
        let mut buf = Vec::with_capacity(44 + data_len as usize);
        buf.extend_from_slice(b"RIFF");
        buf.extend_from_slice(&(36 + data_len).to_le_bytes());
        buf.extend_from_slice(b"WAVE");
        buf.extend_from_slice(b"fmt ");
        buf.extend_from_slice(&16u32.to_le_bytes()); // PCM fmt chunk size
        buf.extend_from_slice(&1u16.to_le_bytes()); // PCM
        buf.extend_from_slice(&num_channels.to_le_bytes());
        buf.extend_from_slice(&self.sample_rate.to_le_bytes());
        // Byte rate, block align, bits per sample.
        buf.extend_from_slice(&(self.sample_rate * u32::from(num_channels) * 2).to_le_bytes());
        buf.extend_from_slice(&(num_channels * 2).to_le_bytes());
        buf.extend_from_slice(&16u16.to_le_bytes());
        buf.extend_from_slice(b"data");
        buf.extend_from_slice(&data_len.to_le_bytes());
        for frame in 0..frames {
            for channel in &quantized {
                buf.extend_from_slice(&channel[frame].to_le_bytes());
            }
        }
        buf
    }

    /// Parses RIFF PCM16 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for malformed headers,
    /// non-PCM16 content, or unsupported channel counts.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, DspError> {
        let bad = |reason: &str| DspError::invalid("wav", reason.to_string());
        let mut cur = Cursor::new(bytes);
        if cur.remaining() < 12 {
            return Err(bad("file shorter than a RIFF header"));
        }
        if cur.tag().as_ref() != Some(b"RIFF") {
            return Err(bad("missing RIFF magic"));
        }
        let _riff_len = cur.u32_le();
        if cur.tag().as_ref() != Some(b"WAVE") {
            return Err(bad("missing WAVE magic"));
        }
        let mut sample_rate = 0u32;
        let mut num_channels = 0u16;
        let mut data: Option<&[u8]> = None;
        while cur.remaining() >= 8 {
            let tag = cur.tag().ok_or_else(|| bad("truncated chunk header"))?;
            let chunk_len = cur.u32_le().ok_or_else(|| bad("truncated chunk header"))? as usize;
            let chunk_bytes = cur.take(chunk_len).ok_or_else(|| bad("truncated chunk"))?;
            match &tag {
                b"fmt " => {
                    let mut fmt = Cursor::new(chunk_bytes);
                    if fmt.remaining() < 16 {
                        return Err(bad("fmt chunk too short"));
                    }
                    let format = fmt.u16_le().unwrap_or(0);
                    num_channels = fmt.u16_le().unwrap_or(0);
                    sample_rate = fmt.u32_le().unwrap_or(0);
                    let _byte_rate = fmt.u32_le();
                    let _block_align = fmt.u16_le();
                    let bits = fmt.u16_le().unwrap_or(0);
                    if format != 1 || bits != 16 {
                        return Err(bad("only 16-bit linear PCM is supported"));
                    }
                }
                b"data" => data = Some(chunk_bytes),
                _ => {} // skip ancillary chunks (LIST, fact, ...)
            }
            // Chunks are word-aligned.
            if chunk_len % 2 == 1 && cur.remaining() > 0 {
                let _ = cur.take(1);
            }
        }
        let data = data.ok_or_else(|| bad("missing data chunk"))?;
        if sample_rate == 0 || num_channels == 0 {
            return Err(bad("missing fmt chunk"));
        }
        if num_channels > 8 {
            return Err(bad("more than 8 channels"));
        }
        let frame_bytes = usize::from(num_channels) * 2;
        let frames = data.len() / frame_bytes;
        if frames == 0 {
            return Err(bad("empty data chunk"));
        }
        let mut channels: Vec<Vec<i16>> = (0..num_channels)
            .map(|_| Vec::with_capacity(frames))
            .collect();
        let mut samples = Cursor::new(data);
        for _ in 0..frames {
            for channel in &mut channels {
                let v = samples
                    .u16_le()
                    .ok_or_else(|| bad("truncated data chunk"))?;
                channel.push(v as i16);
            }
        }
        Ok(WavFile {
            sample_rate,
            channels: channels.iter().map(|c| dequantize_i16(c)).collect(),
        })
    }

    /// Writes the file to disk.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the filesystem wrapped as
    /// [`DspError::InvalidParameter`] (the crate has no I/O error type;
    /// the message carries the OS detail).
    pub fn save(&self, path: &std::path::Path) -> Result<(), DspError> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| DspError::invalid("path", format!("cannot write wav: {e}")))
    }

    /// Reads a file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for an unreadable file,
    /// malformed headers, non-PCM16 content, or unsupported channel
    /// counts.
    pub fn load(path: &std::path::Path) -> Result<Self, DspError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DspError::invalid("path", format!("cannot read wav: {e}")))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-channel file (the parser reads any channel count).
    fn mono(samples: Vec<f64>, sample_rate: u32) -> Result<WavFile, DspError> {
        WavFile::validate(&[&samples], sample_rate)?;
        Ok(WavFile {
            sample_rate,
            channels: vec![samples],
        })
    }

    fn tone(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.5 * (i as f64 * 0.1).sin()).collect()
    }

    #[test]
    fn mono_round_trip() {
        let wav = mono(tone(500), 44_100).unwrap();
        let back = WavFile::from_bytes(&wav.to_bytes()).unwrap();
        assert_eq!(back.sample_rate, 44_100);
        assert_eq!(back.channels.len(), 1);
        assert_eq!(back.len(), 500);
        for (a, b) in wav.channels[0].iter().zip(&back.channels[0]) {
            assert!((a - b).abs() < 1.0 / 32_767.0);
        }
    }

    #[test]
    fn stereo_round_trip_preserves_channel_order() {
        let left = tone(300);
        let right: Vec<f64> = tone(300).iter().map(|x| -x).collect();
        let wav = WavFile::stereo(left.clone(), right.clone(), 48_000).unwrap();
        let back = WavFile::from_bytes(&wav.to_bytes()).unwrap();
        assert_eq!(back.channels.len(), 2);
        for (a, b) in left.iter().zip(&back.channels[0]) {
            assert!((a - b).abs() < 1.0 / 32_767.0);
        }
        for (a, b) in right.iter().zip(&back.channels[1]) {
            assert!((a - b).abs() < 1.0 / 32_767.0);
        }
    }

    #[test]
    fn header_layout_is_canonical() {
        let wav = mono(vec![0.0; 10], 44_100).unwrap();
        let bytes = wav.to_bytes();
        assert_eq!(&bytes[0..4], b"RIFF");
        assert_eq!(&bytes[8..12], b"WAVE");
        assert_eq!(&bytes[12..16], b"fmt ");
        assert_eq!(&bytes[36..40], b"data");
        assert_eq!(bytes.len(), 44 + 20);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(WavFile::from_bytes(b"").is_err());
        assert!(WavFile::from_bytes(b"RIFFxxxxWAVE").is_err());
        assert!(WavFile::from_bytes(b"JUNKxxxxJUNKJUNK").is_err());
        // Valid header but 8-bit format field.
        let wav = mono(vec![0.1; 4], 8_000).unwrap();
        let mut bytes = wav.to_bytes();
        bytes[34] = 8; // bits per sample
        assert!(WavFile::from_bytes(&bytes).is_err());
        // Chunk length pointing past the end of the file.
        let mut truncated = wav.to_bytes();
        let n = truncated.len();
        truncated.truncate(n - 4);
        assert!(WavFile::from_bytes(&truncated).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(mono(vec![], 44_100).is_err());
        assert!(mono(vec![0.0], 0).is_err());
        assert!(WavFile::stereo(vec![0.0; 3], vec![0.0; 4], 44_100).is_err());
        assert_eq!(mono(vec![0.0; 3], 44_100).unwrap().len(), 3);
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("hyperear_wav_test.wav");
        let wav = WavFile::stereo(tone(200), tone(200), 44_100).unwrap();
        wav.save(&path).unwrap();
        let back = WavFile::load(&path).unwrap();
        assert_eq!(back.len(), 200);
        assert_eq!(back.sample_rate, 44_100);
        let _ = std::fs::remove_file(&path);
        assert!(WavFile::load(&dir.join("hyperear_missing.wav")).is_err());
    }

    #[test]
    fn skips_ancillary_chunks() {
        // Insert a LIST chunk between fmt and data.
        let wav = mono(vec![0.25; 8], 22_050).unwrap();
        let canonical = wav.to_bytes();
        let mut patched = Vec::new();
        patched.extend_from_slice(&canonical[..36]); // through fmt chunk
        patched.extend_from_slice(b"LIST");
        patched.extend_from_slice(&4u32.to_le_bytes());
        patched.extend_from_slice(b"INFO");
        patched.extend_from_slice(&canonical[36..]); // data chunk
                                                     // Fix the RIFF length.
        let riff_len = (patched.len() - 8) as u32;
        patched[4..8].copy_from_slice(&riff_len.to_le_bytes());
        let back = WavFile::from_bytes(&patched).unwrap();
        assert_eq!(back.len(), 8);
    }
}
