//! The acoustic environments of paper Fig. 19.
//!
//! Four presets pair a room geometry with a noise type and the SNR the
//! paper measured there: the quiet meeting room (SNR > 15 dB), the same
//! room with volunteers chatting (9 dB), the mall corridor in off-peak
//! hours with background music (6 dB), and the busy-hour mall (3 dB).

use crate::noise::NoiseKind;
use crate::room::Room;
use crate::SimError;

/// A complete acoustic environment: geometry plus ambient noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Display name ("Room, quiet (SNR > 15dB)" etc.).
    pub name: String,
    /// Room geometry; `None` renders free-field (anechoic) propagation.
    pub room: Option<Room>,
    /// Ambient noise family.
    pub noise: NoiseKind,
    /// Target signal-to-noise ratio at the microphones, dB.
    pub snr_db: f64,
}

impl Environment {
    /// The quiet meeting room: "Room, quite (SNR > 15dB)" in Fig. 19.
    #[must_use]
    pub fn room_quiet() -> Self {
        Environment {
            name: "Room, quiet (SNR > 15 dB)".to_string(),
            room: Some(Room::meeting_room()),
            noise: NoiseKind::White,
            snr_db: 18.0,
        }
    }

    /// The meeting room with volunteers chatting (SNR = 9 dB).
    #[must_use]
    pub fn room_chatting() -> Self {
        Environment {
            name: "Room, chatting (SNR = 9 dB)".to_string(),
            room: Some(Room::meeting_room()),
            noise: NoiseKind::Voice,
            snr_db: 9.0,
        }
    }

    /// The mall corridor in off-peak hours with soft music (SNR = 6 dB).
    #[must_use]
    pub fn mall_off_peak() -> Self {
        Environment {
            name: "Mall, off-peak hour (SNR = 6 dB)".to_string(),
            room: Some(Room::mall_corridor()),
            noise: NoiseKind::Music,
            snr_db: 6.0,
        }
    }

    /// The busy-hour mall with crowd noise and announcements (SNR = 3 dB).
    #[must_use]
    pub fn mall_busy() -> Self {
        Environment {
            name: "Mall, busy hour (SNR = 3 dB)".to_string(),
            room: Some(Room::mall_corridor()),
            noise: NoiseKind::MallBusy,
            snr_db: 3.0,
        }
    }

    /// An idealized anechoic, noise-free-ish environment for unit tests
    /// (very high SNR white noise; a zero-noise render would make SNR
    /// undefined).
    #[must_use]
    pub fn anechoic() -> Self {
        Environment {
            name: "Anechoic (SNR = 40 dB)".to_string(),
            room: None,
            noise: NoiseKind::White,
            snr_db: 40.0,
        }
    }

    /// All four Fig. 19 presets, in the paper's legend order.
    #[must_use]
    pub fn fig19_set() -> Vec<Environment> {
        vec![
            Environment::room_quiet(),
            Environment::room_chatting(),
            Environment::mall_off_peak(),
            Environment::mall_busy(),
        ]
    }

    /// Validates the environment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an implausible SNR or an
    /// invalid room.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if !(-10.0..=60.0).contains(&self.snr_db) {
            return Err(SimError::invalid(
                "snr_db",
                format!("must be within [-10, 60] dB, got {}", self.snr_db),
            ));
        }
        if let Some(room) = &self.room {
            room.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_ordered_by_snr() {
        let set = Environment::fig19_set();
        assert_eq!(set.len(), 4);
        for env in &set {
            env.validate().unwrap();
        }
        for pair in set.windows(2) {
            assert!(pair[0].snr_db > pair[1].snr_db);
        }
    }

    #[test]
    fn noise_kinds_match_paper() {
        assert_eq!(Environment::room_chatting().noise, NoiseKind::Voice);
        assert_eq!(Environment::mall_off_peak().noise, NoiseKind::Music);
        assert_eq!(Environment::mall_busy().noise, NoiseKind::MallBusy);
    }

    #[test]
    fn rooms_match_paper_sites() {
        let room = Environment::room_quiet().room.unwrap();
        assert_eq!(room.size.x, 17.0);
        assert_eq!(room.size.y, 13.0);
        let mall = Environment::mall_busy().room.unwrap();
        assert_eq!(mall.size.x, 95.0);
        assert_eq!(mall.size.y, 16.5);
        assert!(Environment::anechoic().room.is_none());
    }

    #[test]
    fn validation_rejects_crazy_snr() {
        let mut env = Environment::room_quiet();
        env.snr_db = 100.0;
        assert!(env.validate().is_err());
        env.snr_db = -20.0;
        assert!(env.validate().is_err());
    }
}
