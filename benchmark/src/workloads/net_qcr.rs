//! `net_qcr`: QCR as message-passing actors (`net::run_net_trials`), on a
//! clean transport and then on one that loses, duplicates and reorders
//! frames. The clean half is the hot message path, the lossy half the
//! retry/escrow path; a gain on one that costs the other shows here.

use impatience_core::demand::Popularity;
use impatience_core::utility::parse_utility;
use impatience_net::{run_net_trial, run_net_trials_observed, Msg, NetConfig, NetStats};
use impatience_obs::Recorder;
use impatience_sim::engine::run_trial;
use impatience_sim::{ContactSource, FaultConfig, MsgFaults, PolicyKind, SimConfig};

use super::{Env, Layers, Rep, Workload};
use crate::gen::{self, NetInputs};
use crate::stats::{median, timed};
use crate::trace::Tracer;

/// One transport: its configuration and the seed of its first trial.
struct Half {
    name: &'static str,
    config: SimConfig,
    base_seed: u64,
    lossless: bool,
}

pub struct NetQcr {
    inputs: NetInputs,
    halves: [Half; 2],
    source: ContactSource,
    net: NetConfig,
    workers: usize,
}

impl NetQcr {
    /// Run `trials` trials of `half` from `first` on `workers` threads,
    /// and audit them.
    fn wave(
        &self,
        half: &Half,
        first: u64,
        trials: usize,
        workers: usize,
        tr: &Tracer,
    ) -> Result<f64, String> {
        let (batch, wall_s) = timed(|| {
            tr.span("net.runner", || {
                run_net_trials_observed(
                    &half.config,
                    &self.source,
                    &self.net,
                    trials,
                    first,
                    Some(workers),
                    &mut Recorder::disabled(),
                )
            })
        });
        let batch = batch.map_err(|e| format!("{} trials from seed {first}: {e}", half.name))?;
        if !batch.conservation.holds() || batch.degraded_trials > 0 {
            return Err(format!(
                "{} trials from seed {first}: conservation {:?}, {} degraded",
                half.name, batch.conservation, batch.degraded_trials
            ));
        }
        if half.lossless && batch.stats.msgs_lost > 0 {
            return Err(format!(
                "clean transport lost {} messages",
                batch.stats.msgs_lost
            ));
        }
        Ok(wall_s)
    }
}

impl Workload for NetQcr {
    fn setup(env: &Env<'_>) -> Result<Self, String> {
        let inputs = gen::net_qcr(env.seed, env.size);
        let config = |faults: Option<FaultConfig>| -> Result<SimConfig, String> {
            let builder = SimConfig::builder(inputs.items, inputs.rho)
                .demand(Popularity::pareto(inputs.items, 1.0).demand_rates(1.0))
                .utility(parse_utility(inputs.utility).map_err(|e| e.to_string())?)
                .bin(60.0);
            Ok(match faults {
                Some(f) => builder.faults(f).build(),
                None => builder.build(),
            })
        };
        let lossy = FaultConfig {
            seed: inputs.fault_seed,
            msg: Some(MsgFaults {
                loss_p: inputs.loss_p,
                dup_p: inputs.dup_p,
                reorder_window: inputs.reorder_window,
            }),
            ..FaultConfig::default()
        };
        Ok(NetQcr {
            halves: [
                Half {
                    name: "clean",
                    config: config(None)?,
                    base_seed: inputs.clean_seed,
                    lossless: true,
                },
                Half {
                    name: "lossy",
                    config: config(Some(lossy))?,
                    base_seed: inputs.lossy_seed,
                    lossless: false,
                },
            ],
            source: ContactSource::homogeneous(inputs.nodes, inputs.mu, inputs.duration),
            net: NetConfig::default(),
            workers: env.workers,
            inputs,
        })
    }

    /// Each half runs in waves of `workers` concurrent trials, so a wave's
    /// wall time is what one trial takes at the workload's concurrency.
    /// The latency-op pairs the k-th clean wave with the k-th lossy one:
    /// pooled singly, the two transports' waves form two clusters whose
    /// median is the gap between them.
    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for half in &self.halves {
            let (mut done, mut wave) = (0, 0);
            while done < self.inputs.trials_per_half {
                let trials = self.workers.min(self.inputs.trials_per_half - done);
                let wall_s =
                    self.wave(half, half.base_seed + done as u64, trials, self.workers, tr)?;
                done += trials;
                rep.ops += trials as u64;
                rep.wall_s += wall_s;
                match rep.latencies_ms.get_mut(wave) {
                    Some(pair) => *pair += wall_s * 1e3,
                    None => rep.latencies_ms.push(wall_s * 1e3),
                }
                wave += 1;
            }
        }
        Ok(rep)
    }

    fn probes(&mut self, tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        // net.kernel: every trial of the workload again, alone on one
        // thread, with the counters its NetStats return.
        let mut stats = NetStats::default();
        let mut total_s = 0.0;
        let mut trial_ms = [0.0; 2];
        for (half, ms) in self.halves.iter().zip(&mut trial_ms) {
            let mut walls = Vec::new();
            for k in 0..self.inputs.trials_per_half as u64 {
                let (outcome, wall_s) = timed(|| {
                    tr.span("net.kernel", || {
                        run_net_trial(&half.config, &self.source, &self.net, half.base_seed + k)
                    })
                });
                let outcome = outcome.map_err(|e| format!("{} trial {k}: {e}", half.name))?;
                if !outcome.conservation.holds() {
                    return Err(format!(
                        "{} trial {k}: {:?}",
                        half.name, outcome.conservation
                    ));
                }
                stats.merge(&outcome.stats);
                total_s += wall_s;
                walls.push(wall_s * 1e3);
            }
            *ms = median(&walls);
        }
        out.set("net.kernel.clean_trial_ms", trial_ms[0]);
        out.set("net.kernel.lossy_trial_ms", trial_ms[1]);
        out.set("net.kernel.msgs_sent", stats.msgs_sent as f64);
        out.set("net.kernel.msgs_per_s", stats.msgs_sent as f64 / total_s);
        out.set(
            "net.kernel.retry_share",
            stats.retries as f64 / stats.msgs_sent.max(1) as f64,
        );
        out.set("net.kernel.handoffs", stats.handoffs_started as f64);
        out.set("net.kernel.execs", stats.execs_applied as f64);

        // The price of the actor plane: the serial engine on the same
        // system and seeds.
        let clean = &self.halves[0];
        let engine_ms: Vec<f64> = (0..self.inputs.trials_per_half as u64)
            .map(|k| {
                timed(|| {
                    tr.span("sim.engine", || {
                        run_trial(
                            &clean.config,
                            &self.source,
                            PolicyKind::qcr_default(),
                            clean.base_seed + k,
                        )
                    })
                })
                .1 * 1e3
            })
            .collect();
        out.set(
            "net.kernel.vs_engine_ratio",
            trial_ms[0] / median(&engine_ms),
        );

        // net.runner: the same clean trials on one worker and on all.
        let trials = self.inputs.trials_per_half;
        let narrow_s = self.wave(clean, clean.base_seed, trials, 1, tr)?;
        let wide_s = self.wave(clean, clean.base_seed, trials, self.workers, tr)?;
        out.set("net.runner.speedup_w2", narrow_s / wide_s);

        // net.wire: one frame of each kind, sized as a ρ = 5 node sends it.
        let frames = [
            Msg::CacheAdvert {
                window: 77,
                items: vec![1, 4, 9, 16, 25],
                mandates: vec![(4, 2), (9, 1), (30, 5)],
            },
            Msg::Request {
                window: 77,
                wants: vec![2, 3, 5],
            },
            Msg::Fulfill {
                window: 77,
                grants: vec![3, 5],
            },
            Msg::MandateHandoff {
                xfer: 0x0123_4567_89AB,
                item: 9,
                count: 3,
                execute: false,
            },
            Msg::MandateAck {
                xfer: 0x0123_4567_89AB,
                consumed: 3,
            },
        ];
        const ROUNDS: usize = 20_000;
        let (encoded, encode_s) = timed(|| {
            let mut last = Vec::new();
            for _ in 0..ROUNDS {
                last = frames
                    .iter()
                    .map(|m| std::hint::black_box(m).encode())
                    .collect();
            }
            last
        });
        let ((), decode_s) = timed(|| {
            for _ in 0..ROUNDS {
                for bytes in &encoded {
                    std::hint::black_box(Msg::decode(std::hint::black_box(bytes)))
                        .expect("an encoded frame decodes");
                }
            }
        });
        let calls = (ROUNDS * frames.len()) as f64;
        out.set("net.wire.encode_ns", encode_s / calls * 1e9);
        out.set("net.wire.decode_ns", decode_s / calls * 1e9);
        Ok(())
    }
}
