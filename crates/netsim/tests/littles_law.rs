//! Little's law, exactly, on every open-loop trace cell.
//!
//! L = λW (Little, *Operations Research* 1961): over a run that starts
//! and ends empty, the number of packets in the system summed over every
//! cycle equals the sum of the packets' times in the system. `SimStats`
//! charges an open-loop packet from its admission cycle through the
//! cycle its tail ejects (`now + 1 − inject_cycle`), so on a manually
//! stepped run with no warm-up, the packets admitted but not yet
//! complete, counted before each `step` and summed over the run, must
//! equal `stats().all.sum`. Parity cannot see an error that every engine
//! shares; this catches a latency stamped a cycle early or late, and a
//! packet counted twice or never. Closed-loop cells are left out: their
//! latency starts at emission, not admission.

mod common;

use common::cells;

#[test]
fn live_packets_summed_over_cycles_equal_the_latency_sum() {
    let open_traces: Vec<_> = cells::catalog()
        .into_iter()
        .filter(|c| c.name.contains("/open/trace"))
        .collect();
    assert_eq!(
        open_traces.len(),
        8,
        "five families and three router configurations"
    );
    for cell in &open_traces {
        let trace = cell.trace().expect("trace cell");
        let mut sim = cell.single();
        let (mut next, mut now) = (0, 0u64);
        let (mut admitted, mut live_sum) = (0u64, 0u64);
        while next < trace.events.len() || sim.pending_packets() > 0 || sim.in_network_flits() > 0 {
            while let Some(e) = trace.events.get(next).filter(|e| e.cycle <= now) {
                sim.admit(e.src, e.dst, e.flits, e.cycle);
                // A faulted cell drops a pair with no route at admission.
                admitted += u64::from(cell.routes.reachable(e.src, e.dst));
                next += 1;
            }
            live_sum += admitted - sim.stats().all.count;
            sim.step(now);
            now += 1;
        }
        let stats = sim.stats();
        assert_eq!(
            stats.all.count, admitted,
            "{}: every admission completes",
            cell.name
        );
        assert!(stats.all.count > 0, "{}: nothing delivered", cell.name);
        assert_eq!(live_sum, stats.all.sum, "{}: L = λW", cell.name);
    }
}
