//! The named device-preset table.
//!
//! Every mic-separation constant the reproduction uses lives here, once.
//! `hyperear::config`, `hyperear_sim::phone`, and the bench tables all
//! import these presets instead of repeating the `0.1366` / `0.1512`
//! literals, so a measured correction to a device's geometry propagates
//! everywhere from a single edit.

use crate::array::MicArray;

/// One named device: the phone models the paper measures (Table at
/// §VI-A) plus synthetic multi-mic arrays for the generalized pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePreset {
    /// Stable preset identifier (`"galaxy-s4"`, ...).
    pub name: &'static str,
    /// Distance between the primary microphone pair, metres.
    pub mic_separation: f64,
    /// Number of microphones the device exposes.
    pub mic_count: usize,
}

impl DevicePreset {
    /// The microphone array this preset describes, in the device frame.
    ///
    /// Two-mic phones get the canonical primary pair; the synthetic
    /// presets get their triangle / rectangle layouts.
    pub fn array(&self) -> MicArray {
        match self.mic_count {
            3 => MicArray::triangle(self.mic_separation),
            4 => MicArray::rectangle(self.mic_separation, self.mic_separation / 2.0),
            _ => MicArray::two_mic(self.mic_separation),
        }
    }
}

/// Samsung Galaxy S4: top/bottom mics 13.66 cm apart (paper §VI-A).
pub const GALAXY_S4: DevicePreset = DevicePreset {
    name: "galaxy-s4",
    mic_separation: 0.1366,
    mic_count: 2,
};

/// Samsung Galaxy Note 3: top/bottom mics 15.12 cm apart (paper §VI-A).
pub const GALAXY_NOTE3: DevicePreset = DevicePreset {
    name: "galaxy-note3",
    mic_separation: 0.1512,
    mic_count: 2,
};

/// Synthetic 3-mic tablet: an equilateral triangle at S4 aperture, the
/// smallest array that supports single-shot planar 2D DOA.
pub const TABLET_TRIANGLE: DevicePreset = DevicePreset {
    name: "tablet-triangle",
    mic_separation: 0.1366,
    mic_count: 3,
};

/// Synthetic 4-mic smart-speaker rectangle at Note 3 aperture.
pub const SPEAKER_RECT: DevicePreset = DevicePreset {
    name: "speaker-rect",
    mic_separation: 0.1512,
    mic_count: 4,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_pinned() {
        assert_eq!(GALAXY_S4.mic_separation, 0.1366);
        assert_eq!(GALAXY_NOTE3.mic_separation, 0.1512);
    }

    #[test]
    fn preset_arrays_validate_and_match_separation() {
        for p in [GALAXY_S4, GALAXY_NOTE3, TABLET_TRIANGLE, SPEAKER_RECT] {
            let a = p.array();
            a.validate().unwrap();
            assert_eq!(a.len(), p.mic_count);
            assert!((a.baseline(0, 1).unwrap() - p.mic_separation).abs() < 1e-12);
        }
    }
}
