//! Paper-listing-style pretty printer: renders a [`Program`] as the
//! pragmas of the source paper so a shrunk counterexample reads like one
//! of its listings.

use std::fmt::Write;

use crate::ast::{BadKind, FaultMode, KernelOp, Program, Sched, Stmt};

fn devices(d: &[u32]) -> String {
    let items: Vec<String> = d.iter().map(|x| x.to_string()).collect();
    format!("devices({})", items.join(","))
}

fn sched(s: &Sched) -> String {
    match s {
        Sched::Static { chunk } => format!("spread_schedule(static, {chunk})"),
        Sched::Weighted { round, weights } => {
            let ws: Vec<String> = weights.iter().map(|w| w.to_string()).collect();
            format!("spread_schedule(weighted, {round}; w=[{}])", ws.join(","))
        }
        Sched::Dynamic { chunk } => format!("spread_schedule(dynamic, {chunk})"),
        Sched::Auto { key } => format!("spread_schedule(auto, key=auto-{key})"),
    }
}

/// The `spread_resilience(…)` clause every spread construct carries
/// when the program runs in resilient mode.
fn resilience(p: &Program) -> &'static str {
    if p.resilient() {
        " spread_resilience(redistribute)"
    } else {
        ""
    }
}

/// The `spread_integrity(…)` clause every spread construct carries when
/// the program runs in integrity mode.
fn integrity(p: &Program) -> &'static str {
    match p.integrity_mode() {
        Some(spread_core::IntegrityMode::Verify) => " spread_integrity(verify)",
        Some(spread_core::IntegrityMode::Heal) => " spread_integrity(heal)",
        _ => "",
    }
}

/// The `spread_overlap(…)` clause every spread construct carries when
/// the program runs in overlap mode.
fn overlap(p: &Program) -> String {
    match p.overlap_depth() {
        Some(d) => format!(" spread_overlap({d})"),
        None => String::new(),
    }
}

/// The `spread_pressure(…)` clause every spread construct carries when
/// the program runs in pressure mode.
fn pressure(p: &Program) -> &'static str {
    match p.pressure_policy() {
        Some(spread_core::PressurePolicy::Split) => " spread_pressure(split)",
        Some(spread_core::PressurePolicy::Spill) => " spread_pressure(spill)",
        _ => "",
    }
}

fn push_stmt(out: &mut String, p: &Program, stmt: &Stmt) {
    let n = p.n;
    match stmt {
        Stmt::Spread {
            devices: d,
            sched: sc,
            nowait,
            op,
        } => {
            let nw = if *nowait { " nowait" } else { "" };
            let res = resilience(p);
            let pres = pressure(p);
            let integ = integrity(p);
            let ov = overlap(p);
            let (maps, body) = match *op {
                KernelOp::AddConst { a, c } => (
                    format!("map(spread_tofrom: A{a}[ss:sz])"),
                    format!("for (i in 0..{n}) A{a}[i] += {c};"),
                ),
                KernelOp::Scale { a, c } => (
                    format!("map(spread_tofrom: A{a}[ss:sz])"),
                    format!("for (i in 0..{n}) A{a}[i] *= {c};"),
                ),
                KernelOp::Saxpy { x, y, alpha } => (
                    format!("map(spread_to: A{x}[ss:sz]) map(spread_tofrom: A{y}[ss:sz])"),
                    format!("for (i in 0..{n}) A{y}[i] += {alpha} * A{x}[i];"),
                ),
                KernelOp::Stencil3 { src, dst } => (
                    format!("map(spread_to: A{src}[ss-1:sz+2]) map(spread_from: A{dst}[ss:sz])"),
                    format!(
                        "for (i in 1..{}) A{dst}[i] = A{src}[i-1] + A{src}[i] + A{src}[i+1];",
                        n - 1
                    ),
                ),
            };
            let _ = writeln!(
                out,
                "#pragma omp target spread {} {}{res}{pres}{integ}{ov} {maps}{nw}\n    {body}",
                devices(d),
                sched(sc)
            );
        }
        Stmt::Reduce {
            devices: d,
            sched: sc,
            a,
            partials,
            alpha,
            op,
        } => {
            let res = resilience(p);
            let _ = writeln!(
                out,
                "#pragma omp target spread {} {}{res} map(spread_to: A{a}[ss:sz]) \
                 map(spread_from: A{partials}[ss:sz]) reduction({op:?})\n    \
                 for (i in 0..{n}) A{partials}[i] = {alpha} * A{a}[i];  // fold on host",
                devices(d),
                sched(sc)
            );
        }
        Stmt::DataRegion {
            devices: d,
            chunk,
            a,
            body_add,
            update_from,
            exit_from,
        } => {
            let _ = writeln!(
                out,
                "#pragma omp target enter data spread {} range(A{a}[0:{n}]) chunk_size({chunk}) \
                 map(spread_to: A{a}[ss:sz])",
                devices(d)
            );
            if let Some(c) = body_add {
                let _ = writeln!(
                    out,
                    "#pragma omp target spread {} spread_schedule(static, {chunk}) \
                     map(spread_tofrom: A{a}[ss:sz])\n    for (i in 0..{n}) A{a}[i] += {c};",
                    devices(d)
                );
            }
            if *update_from {
                let _ = writeln!(
                    out,
                    "#pragma omp target update spread {} range(A{a}[0:{n}]) chunk_size({chunk}) \
                     from(A{a}[ss:sz])",
                    devices(d)
                );
            }
            let mt = if *exit_from { "spread_from" } else { "release" };
            let _ = writeln!(
                out,
                "#pragma omp target exit data spread {} range(A{a}[0:{n}]) chunk_size({chunk}) \
                 map({mt}: A{a}[ss:sz])",
                devices(d)
            );
        }
        Stmt::Halo {
            devices: d,
            chunk,
            a,
            dst,
            bump,
        } => {
            let _ = writeln!(
                out,
                "#pragma omp target enter data spread {} range(A{a}[0:{n}]) chunk_size({chunk}) \
                 map(spread_to: A{a}[ss-1:sz+2])",
                devices(d)
            );
            if let Some(c) = bump {
                let _ = writeln!(
                    out,
                    "#pragma omp target spread {} spread_schedule(static, {chunk}) \
                     map(spread_tofrom: A{a}[ss:sz])\n    for (i in 0..{n}) A{a}[i] += {c};  \
                     // siblings go stale: every halo must take the host route",
                    devices(d)
                );
            }
            let _ = writeln!(
                out,
                "#pragma omp target update spread {} range(A{a}[0:{n}]) chunk_size({chunk}) \
                 to(A{a}[ss-1:1]) to(A{a}[ss+sz:1]) exchange(auto)",
                devices(d)
            );
            let _ = writeln!(
                out,
                "#pragma omp target spread {} spread_schedule(static, {chunk}) \
                 map(spread_to: A{a}[ss-1:sz+2]) map(spread_from: A{dst}[ss:sz])\n    \
                 for (i in 0..{n}) A{dst}[i] = A{a}[max(i-1,0)] + A{a}[i] + A{a}[min(i+1,{})];",
                devices(d),
                n - 1
            );
            let _ = writeln!(
                out,
                "#pragma omp target exit data spread {} range(A{a}[0:{n}]) chunk_size({chunk}) \
                 map(release: A{a}[ss-1:sz+2])",
                devices(d)
            );
        }
        Stmt::RawEnter {
            device,
            a,
            start,
            len,
        } => {
            let _ = writeln!(
                out,
                "#pragma omp target enter data spread devices({device}) range(A{a}[{start}:{len}]) \
                 chunk_size({len}) map(spread_to: A{a}[ss:sz])"
            );
        }
        Stmt::RawExit {
            device,
            a,
            start,
            len,
            delete,
        } => {
            let mt = if *delete { "delete" } else { "spread_from" };
            let _ = writeln!(
                out,
                "#pragma omp target exit data spread devices({device}) range(A{a}[{start}:{len}]) \
                 chunk_size({len}) map({mt}: A{a}[ss:sz])"
            );
        }
        Stmt::RawUpdate {
            device,
            a,
            start,
            len,
            from,
        } => {
            let dir = if *from { "from" } else { "to" };
            let _ = writeln!(
                out,
                "#pragma omp target update spread devices({device}) range(A{a}[{start}:{len}]) \
                 chunk_size({len}) {dir}(A{a}[ss:sz])"
            );
        }
        Stmt::Bad { a, kind } => {
            let what = match kind {
                BadKind::DynamicDataSchedule => format!(
                    "#pragma omp target enter data spread devices(0) \
                     spread_schedule(dynamic, 4) range(A{a}[0:{n}]) chunk_size(4)  // illegal"
                ),
                BadKind::MissingChunkSize => format!(
                    "#pragma omp target enter data spread devices(0) range(A{a}[0:{n}])  \
                     // illegal: no chunk_size"
                ),
                BadKind::EmptyDevices => {
                    format!("#pragma omp target spread devices() … A{a} …  // illegal: no devices")
                }
            };
            let _ = writeln!(out, "{what}");
        }
    }
}

/// Render `p` as a paper-style listing (`ss`/`sz` abbreviate
/// `omp_spread_start`/`omp_spread_size`).
pub fn listing(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// {} device(s), {} array(s) of {} doubles (A_k[i] = ((7i+13k) mod 23) - 11)",
        p.n_devices, p.n_arrays, p.n
    );
    if let Some(f) = &p.fault {
        let mode = match f.mode {
            FaultMode::FailStop => "fail-stop",
            FaultMode::Resilient => "resilient",
        };
        match f.lost {
            Some(d) => {
                let _ = writeln!(out, "// fault plan: device {d} lost at t=0 ({mode})");
            }
            None => {
                let _ = writeln!(out, "// fault plan: no loss ({mode})");
            }
        }
        for (d, count) in &f.transients {
            let _ = writeln!(
                out,
                "// fault plan: {count} transient copy failure(s) on device {d} (retried)"
            );
        }
    }
    if let Some(ps) = &p.pressure {
        let _ = writeln!(
            out,
            "// pressure: {:?} mode, every device capped at {} bytes",
            ps.policy, ps.cap_bytes
        );
        for (d, bytes) in &ps.sustained {
            let _ = writeln!(
                out,
                "// pressure: {bytes} bytes of sustained OOM pressure on device {d} from t=0"
            );
        }
    }
    if let Some(is) = &p.integrity {
        let _ = writeln!(out, "// integrity: {:?} mode", is.mode);
        for (d, count) in &is.flips {
            let _ = writeln!(
                out,
                "// integrity: {count} silent bit-flip token(s) armed on device {d} at t=0"
            );
        }
    }
    if let Some(os) = &p.overlap {
        let _ = writeln!(
            out,
            "// overlap: every spread construct pipelines its pieces at depth {}",
            os.depth
        );
    }
    for (i, phase) in p.phases.iter().enumerate() {
        let _ = writeln!(out, "// ---- phase {i} ----");
        for stmt in phase {
            push_stmt(&mut out, p, stmt);
        }
        let _ = writeln!(out, "#pragma omp taskwait");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_program;
    use crate::Mode;

    #[test]
    fn listings_render_and_are_deterministic() {
        for seed in 0..50u64 {
            let p = gen_program(seed, Mode::Plain);
            let a = listing(&p);
            assert!(a.contains("#pragma omp"), "seed {seed}:\n{a}");
            assert_eq!(a, listing(&p));
        }
    }
}
