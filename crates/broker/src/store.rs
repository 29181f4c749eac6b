//! Durable append-only campaign log.
//!
//! Every accepted spec, progress checkpoint, and terminal outcome is
//! appended as a length-prefixed wire frame (the same framing the
//! network uses, so one codec serves both). On open, the log is
//! replayed into per-campaign state; a truncated final record — the
//! signature of a crash mid-append — is tolerated and dropped, and a
//! whole frame that is no record is skipped without losing the records
//! after it. Dropping is safe since
//! every record is redundant against re-execution: campaigns are
//! deterministic, so a lost progress checkpoint or report only means
//! re-running the spec, never a wrong answer.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use avf_inject::CampaignReport;
use avf_service::frame::{read_frame, write_frame};

use crate::protocol::{CampaignSpec, LogRecord};

/// Replayed state of one logged campaign.
#[derive(Debug, Clone)]
pub struct StoredCampaign {
    /// Durable campaign id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The accepted spec (sufficient to re-run identically).
    pub spec: Arc<CampaignSpec>,
    /// Last logged progress checkpoint.
    pub trials_done: u64,
    /// Terminal outcome, if the campaign finished before the log
    /// closed. `None` means a restarted broker must re-run the spec.
    pub outcome: Option<Result<Arc<CampaignReport>, String>>,
}

/// The append handle over the broker's campaign log.
#[derive(Debug)]
pub struct CampaignStore {
    writer: BufWriter<File>,
}

impl CampaignStore {
    /// Opens (creating if absent) the log at `path`, replaying existing
    /// records. Returns the store plus the campaigns found, in
    /// acceptance order.
    ///
    /// # Errors
    ///
    /// Fails only on filesystem errors. A whole frame that does not
    /// decode to a record is skipped, and a truncated final frame
    /// ends the replay; neither is fatal. Whatever follows the last
    /// record that decodes is cut off the file.
    pub fn open(path: &Path) -> io::Result<(CampaignStore, Vec<StoredCampaign>)> {
        let mut campaigns: BTreeMap<u64, StoredCampaign> = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut good_bytes: u64 = 0;
        if path.exists() {
            let file_len = std::fs::metadata(path)?.len();
            let mut reader = BufReader::new(File::open(path)?);
            let mut read_bytes: u64 = 0;
            loop {
                let payload = match read_frame(&mut reader) {
                    Ok(Some(p)) => p,
                    // Clean EOF: the log ends on a record boundary.
                    Ok(None) => break,
                    // Torn tail from a crash mid-append; everything up
                    // to here replayed fine, so stop and move on.
                    Err(_) => break,
                };
                read_bytes += 4 + payload.len() as u64;
                // A whole frame that is no record: skip it, keeping
                // the records after it.
                let Ok(record) = LogRecord::from_wire(&payload) else {
                    continue;
                };
                good_bytes = read_bytes;
                match record {
                    LogRecord::Accepted { id, tenant, spec } => {
                        order.push(id);
                        campaigns.insert(
                            id,
                            StoredCampaign {
                                id,
                                tenant,
                                spec: Arc::new(*spec),
                                trials_done: 0,
                                outcome: None,
                            },
                        );
                    }
                    LogRecord::Progress { id, trials_done } => {
                        if let Some(c) = campaigns.get_mut(&id) {
                            c.trials_done = c.trials_done.max(trials_done);
                        }
                    }
                    LogRecord::Report { id, report } => {
                        if let Some(c) = campaigns.get_mut(&id) {
                            c.outcome = Some(Ok(Arc::new(*report)));
                        }
                    }
                    LogRecord::Failed { id, error } => {
                        if let Some(c) = campaigns.get_mut(&id) {
                            c.outcome = Some(Err(error));
                        }
                    }
                }
            }
            // Chop off what follows the last record that decodes (a torn
            // tail, undecodable frames) before appending, so every record
            // written from here on is reachable by the next replay.
            if good_bytes < file_len {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(good_bytes)?;
            }
        }
        let writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?);
        let replayed = order
            .into_iter()
            .filter_map(|id| campaigns.get(&id).cloned())
            .collect();
        Ok((CampaignStore { writer }, replayed))
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn append(&mut self, record: &LogRecord) -> io::Result<()> {
        write_frame(&mut self.writer, &record.to_wire())
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_prune::PruneMode;
    use avf_sim::{FaultModel, MachineConfig};

    fn spec() -> CampaignSpec {
        CampaignSpec {
            machine: MachineConfig::baseline(),
            program: avf_workloads::testkit::idle_loop(),
            injections: 96,
            seed: 3,
            instr_budget: 4_000,
            ci_target: None,
            batch_size: 32,
            checkpoint_interval: 0,
            fault_model: FaultModel::default(),
            prune: PruneMode::Off,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("avf-broker-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("campaigns.log")
    }

    fn run_report(spec: &CampaignSpec) -> CampaignReport {
        avf_inject::Campaign::new(&spec.machine, &spec.program, spec.to_config()).run()
    }

    #[test]
    fn log_round_trips_across_reopen() {
        let path = tmp("roundtrip");
        let (mut store, replayed) = CampaignStore::open(&path).unwrap();
        assert!(replayed.is_empty());
        store
            .append(&LogRecord::Accepted {
                id: 1,
                tenant: "t1".to_owned(),
                spec: Box::new(spec()),
            })
            .unwrap();
        store
            .append(&LogRecord::Progress {
                id: 1,
                trials_done: 32,
            })
            .unwrap();
        let report = run_report(&spec());
        store
            .append(&LogRecord::Report {
                id: 1,
                report: Box::new(report.clone()),
            })
            .unwrap();
        store
            .append(&LogRecord::Accepted {
                id: 2,
                tenant: "t2".to_owned(),
                spec: Box::new(spec()),
            })
            .unwrap();
        drop(store);

        let (_store, replayed) = CampaignStore::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].id, 1);
        assert_eq!(replayed[0].tenant, "t1");
        assert_eq!(replayed[0].trials_done, 32);
        let stored = replayed[0]
            .outcome
            .as_ref()
            .expect("terminal")
            .as_ref()
            .expect("report");
        assert_eq!(format!("{stored}"), format!("{report}"));
        // Campaign 2 never finished: the restarted broker must re-run it.
        assert_eq!(replayed[1].id, 2);
        assert!(replayed[1].outcome.is_none());
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let path = tmp("torn");
        let (mut store, _) = CampaignStore::open(&path).unwrap();
        store
            .append(&LogRecord::Accepted {
                id: 1,
                tenant: "t".to_owned(),
                spec: Box::new(spec()),
            })
            .unwrap();
        store
            .append(&LogRecord::Progress {
                id: 1,
                trials_done: 64,
            })
            .unwrap();
        drop(store);
        // Simulate a crash mid-append: chop bytes off the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (mut store, replayed) = CampaignStore::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        // The torn Progress record was dropped.
        assert_eq!(replayed[0].trials_done, 0);
        // The torn bytes were chopped off, so new appends land on a
        // clean record boundary and replay fine next time.
        store
            .append(&LogRecord::Failed {
                id: 1,
                error: "gave up".to_owned(),
            })
            .unwrap();
        drop(store);
        let (_store, replayed) = CampaignStore::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(
            replayed[0].outcome.as_ref().unwrap().as_ref().unwrap_err(),
            "gave up"
        );
    }
}
