//! [`Snap`] codecs for query outcomes and records: the whole record,
//! address and ISP included. `campaign_run --out` writes a campaign's
//! records with them, and ci.sh compares those bytes across runs and
//! builds, so this encoding must stay byte for byte. (Checkpoints store
//! records relative to their task instead; see [`crate::checkpoint`].)

use crate::outcome::{QueryOutcome, QueryRecord};
use caf_snap::{Reader, Snap, SnapError, Writer};

impl Snap for QueryOutcome {
    fn encode(&self, w: &mut Writer) {
        match self {
            QueryOutcome::Serviceable {
                plans,
                existing_subscriber,
            } => {
                w.put_u8(0);
                w.put_seq(plans);
                w.put_bool(*existing_subscriber);
            }
            QueryOutcome::NoService => w.put_u8(1),
            QueryOutcome::AddressNotFound => w.put_u8(2),
            QueryOutcome::Unknown(category) => {
                w.put_u8(3);
                w.put(category);
            }
            QueryOutcome::CallToOrder => w.put_u8(4),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => QueryOutcome::Serviceable {
                plans: r.get_seq()?.into(),
                existing_subscriber: r.bool()?,
            },
            1 => QueryOutcome::NoService,
            2 => QueryOutcome::AddressNotFound,
            3 => QueryOutcome::Unknown(r.get()?),
            4 => QueryOutcome::CallToOrder,
            other => {
                return Err(SnapError::Malformed(format!(
                    "query outcome: unknown tag {other}"
                )))
            }
        })
    }
}

impl Snap for QueryRecord {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.address);
        w.put(&self.isp);
        w.put(&self.outcome);
        w.put_u32(self.attempts);
        w.put_seq(&self.errors);
        w.put_f64(self.duration_secs);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(QueryRecord {
            address: r.get()?,
            isp: r.get()?,
            outcome: r.get()?,
            attempts: r.u32()?,
            errors: r.get_seq()?,
            duration_secs: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_geo::AddressId;
    use caf_synth::params::ErrorCategory;
    use caf_synth::{BroadbandPlan, Isp};

    #[test]
    fn query_records_round_trip() {
        let records = vec![
            QueryRecord {
                address: AddressId(1),
                isp: Isp::Att,
                outcome: QueryOutcome::Serviceable {
                    plans: vec![BroadbandPlan {
                        name: "Internet 100".into(),
                        download_mbps: Some(100.0),
                        upload_mbps: Some(20.0),
                        monthly_usd: 55.0,
                        speed_guaranteed: false,
                    }]
                    .into(),
                    existing_subscriber: true,
                },
                attempts: 2,
                errors: vec![ErrorCategory::SelectDropdown],
                duration_secs: 13.25,
            },
            QueryRecord {
                address: AddressId(2),
                isp: Isp::Frontier,
                outcome: QueryOutcome::Unknown(ErrorCategory::EmptyTraceback),
                attempts: 7,
                errors: ErrorCategory::all().to_vec(),
                duration_secs: 240.0,
            },
            QueryRecord {
                address: AddressId(3),
                isp: Isp::Consolidated,
                outcome: QueryOutcome::CallToOrder,
                attempts: 1,
                errors: Vec::new(),
                duration_secs: 4.5,
            },
        ];
        let mut w = Writer::new();
        w.put_seq(&records);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded: Vec<QueryRecord> = r.get_seq().unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn unknown_outcome_tag_is_rejected() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            r.get::<QueryOutcome>(),
            Err(SnapError::Malformed(_))
        ));
    }
}
