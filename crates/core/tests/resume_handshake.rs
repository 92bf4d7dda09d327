//! One resume handshake under every resumable layer.
//!
//! A kill checkpoint is taken from a plain fleet, a recorded fleet, a
//! federated fleet and a service session, and the same three faults are
//! applied to its per-slot lists. Each layer must refuse with the same
//! [`FleetResumeError`] at the same slot — bare, or inside
//! [`FederatedResumeError::Fleet`] or [`ServiceResumeError::Checkpoint`]
//! — and the same refusal must come back after a binary round trip
//! through the checkpoint's `from_bytes`.

use evoflow_core::{
    resume_campaign_fleet, resume_campaign_fleet_federated, resume_campaign_fleet_recorded,
    resume_service, run_campaign_fleet_federated_until, run_campaign_fleet_recorded_until,
    run_campaign_fleet_until, run_service_until, CampaignConfig, CampaignLedger, CampaignReport,
    Cell, FederatedConfig, FederatedResumeError, FleetConfig, FleetLedgerCheckpoint,
    FleetResumeError, LedgerEncoding, MaterialsSpace, PlacementPolicyKind, ServiceCheckpoint,
    ServiceConfig, ServiceResumeError, TenantSpec,
};
use evoflow_sim::SimDuration;

/// Campaigns that commit before every kill (serial, so deterministic).
const KILL_AFTER: usize = 2;
/// Slot whose stored seed the seed fault changes.
const SEED_SLOT: usize = 1;

fn space() -> MaterialsSpace {
    MaterialsSpace::generate(3, 8, 20261017)
}

fn campaign() -> CampaignConfig {
    let mut c = CampaignConfig::for_cell(Cell::traditional_wms(), 0);
    c.horizon = SimDuration::from_days(1);
    c
}

fn fleet() -> FleetConfig {
    let mut cfg = FleetConfig::new(41);
    cfg.threads = 1;
    for _ in 0..4 {
        cfg.push_campaign(campaign());
    }
    cfg
}

fn service() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(41);
    cfg.threads = 1;
    cfg.push_tenant(TenantSpec::new("alice"));
    cfg.push_tenant(TenantSpec::new("bob"));
    for _ in 0..2 {
        cfg.submit("alice", campaign());
        cfg.submit("bob", campaign());
    }
    cfg
}

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Drop the last slot from every per-slot list.
    DropLastSlot,
    /// Change one stored seed.
    ChangeSeed,
    /// Drop a committed slot's ledger.
    DropLedger,
}

const FAULTS: [Fault; 3] = [Fault::DropLastSlot, Fault::ChangeSeed, Fault::DropLedger];

impl Fault {
    /// Apply the fault to a checkpoint's per-slot lists and return the
    /// refusal the handshake owes, or `None` where the fault does not
    /// apply (a checkpoint without ledgers).
    fn apply(
        self,
        seeds: &mut Vec<u64>,
        reports: &mut Vec<Option<CampaignReport>>,
        ledgers: Option<&mut Vec<Option<CampaignLedger>>>,
    ) -> Option<FleetResumeError> {
        let slots = seeds.len();
        match self {
            Fault::DropLastSlot => {
                seeds.pop();
                reports.pop();
                if let Some(ledgers) = ledgers {
                    ledgers.pop();
                }
                Some(FleetResumeError::ShapeMismatch {
                    checkpoint: slots - 1,
                    fleet: slots,
                })
            }
            Fault::ChangeSeed => {
                seeds[SEED_SLOT] ^= 1;
                Some(FleetResumeError::SeedMismatch { index: SEED_SLOT })
            }
            Fault::DropLedger => {
                let ledgers = ledgers?;
                let index = reports.iter().position(Option::is_some).expect("a commit");
                ledgers[index] = None;
                Some(FleetResumeError::LedgerMismatch { index })
            }
        }
    }
}

#[test]
fn plain_fleet_refuses_each_fault() {
    let (space, cfg) = (space(), fleet());
    let clean = run_campaign_fleet_until(&space, &cfg, KILL_AFTER);
    assert_eq!(clean.completed_count(), KILL_AFTER);
    assert!(resume_campaign_fleet(&space, &cfg, &clean).is_ok());
    for fault in FAULTS {
        let mut ckpt = clean.clone();
        let Some(expected) = fault.apply(&mut ckpt.shard_seeds, &mut ckpt.completed, None) else {
            continue;
        };
        assert_eq!(
            resume_campaign_fleet(&space, &cfg, &ckpt),
            Err(expected),
            "{fault:?}"
        );
    }
}

#[test]
fn recorded_fleet_refuses_each_fault_also_from_bytes() {
    let (space, cfg) = (space(), fleet());
    let clean = run_campaign_fleet_recorded_until(&space, &cfg, KILL_AFTER);
    assert_eq!(clean.fleet.completed_count(), KILL_AFTER);
    assert!(resume_campaign_fleet_recorded(&space, &cfg, &clean).is_ok());
    for fault in FAULTS {
        let mut ckpt = clean.clone();
        let expected = fault
            .apply(
                &mut ckpt.fleet.shard_seeds,
                &mut ckpt.fleet.completed,
                Some(&mut ckpt.ledgers),
            )
            .expect("every fault applies to a recorded checkpoint");
        assert_eq!(
            resume_campaign_fleet_recorded(&space, &cfg, &ckpt).unwrap_err(),
            expected,
            "{fault:?}"
        );
        let decoded = FleetLedgerCheckpoint::from_bytes(&ckpt.to_bytes(LedgerEncoding::Binary))
            .expect("a checkpoint decodes from its own bytes");
        assert_eq!(
            resume_campaign_fleet_recorded(&space, &cfg, &decoded).unwrap_err(),
            expected,
            "{fault:?} after a binary round trip"
        );
    }
}

#[test]
fn federated_fleet_refuses_each_fault_as_a_fleet_refusal() {
    let space = space();
    let cfg = FederatedConfig::standard(fleet(), PlacementPolicyKind::LeastWait);
    let clean = run_campaign_fleet_federated_until(&space, &cfg, KILL_AFTER).unwrap();
    assert_eq!(clean.fleet.completed_count(), KILL_AFTER);
    assert!(resume_campaign_fleet_federated(&space, &cfg, &clean).is_ok());
    for fault in FAULTS {
        let mut ckpt = clean.clone();
        let Some(expected) =
            fault.apply(&mut ckpt.fleet.shard_seeds, &mut ckpt.fleet.completed, None)
        else {
            continue;
        };
        assert_eq!(
            resume_campaign_fleet_federated(&space, &cfg, &ckpt),
            Err(FederatedResumeError::Fleet(expected)),
            "{fault:?}"
        );
    }
}

#[test]
fn service_refuses_each_fault_as_a_checkpoint_refusal_also_from_bytes() {
    let (space, cfg) = (space(), service());
    let clean = run_service_until(&space, &cfg, KILL_AFTER).unwrap();
    assert_eq!(clean.completed_count(), KILL_AFTER);
    assert!(resume_service(&space, &cfg, &clean).is_ok());
    for fault in FAULTS {
        let mut ckpt = clean.clone();
        let expected = ServiceResumeError::Checkpoint(
            fault
                .apply(
                    &mut ckpt.seeds,
                    &mut ckpt.completed,
                    Some(&mut ckpt.ledgers),
                )
                .expect("every fault applies to a service checkpoint"),
        );
        assert_eq!(
            resume_service(&space, &cfg, &ckpt).unwrap_err(),
            expected,
            "{fault:?}"
        );
        let decoded = ServiceCheckpoint::from_bytes(&ckpt.to_bytes(LedgerEncoding::Binary))
            .expect("a checkpoint decodes from its own bytes");
        assert_eq!(
            resume_service(&space, &cfg, &decoded).unwrap_err(),
            expected,
            "{fault:?} after a binary round trip"
        );
    }
}
