//! [`Snap`] codecs for the geography values other crates persist: the
//! state of a challenge delta and the address id of a query record.
//!
//! A decoded value re-enters through its validating constructor: a
//! FIPS code or state that would be invalid to construct is a
//! [`SnapError::Malformed`], never a live invalid value.

use crate::address::AddressId;
use crate::ids::StateFips;
use crate::state::UsState;
use caf_snap::{Reader, Snap, SnapError, Writer};

fn malformed(what: &str, detail: impl std::fmt::Display) -> SnapError {
    SnapError::Malformed(format!("{what}: {detail}"))
}

impl Snap for StateFips {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.code());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let code = r.u16()?;
        StateFips::new(code).map_err(|e| malformed("state fips", e))
    }
}

impl Snap for UsState {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.fips());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let fips: StateFips = r.get()?;
        UsState::from_fips(fips)
            .ok_or_else(|| malformed("us state", format_args!("unknown fips {}", fips.code())))
    }
}

impl Snap for AddressId {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(AddressId(r.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(value: &T) {
        let mut w = Writer::new();
        w.put(value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(&r.get::<T>().unwrap(), value);
        r.finish().unwrap();
    }

    #[test]
    fn geo_types_round_trip() {
        roundtrip(&StateFips::new(48).unwrap());
        roundtrip(&UsState::Texas);
        roundtrip(&AddressId(42));
    }

    #[test]
    fn invalid_payloads_are_malformed_not_panics() {
        // FIPS 99 is not a state.
        let mut w = Writer::new();
        w.put_u16(99);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get::<StateFips>(),
            Err(SnapError::Malformed(_))
        ));
        // FIPS 3 is a valid code that no state holds.
        let mut w = Writer::new();
        w.put_u16(3);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).get::<UsState>(),
            Err(SnapError::Malformed(_))
        ));
    }
}
