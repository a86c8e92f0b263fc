package main

import (
	"strings"

	"repro/internal/transport"
)

// perLayer computes the traced run's per-layer metrics. plain and traced
// are the run's untraced and traced units (alternating, same inputs):
// counters and spans come from the traced units, the overhead figures
// compare the two sets. A layer the workload does not exercise reads 0.
func perLayer(t *tracer, plain, traced *samples) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ms := func(secs float64) float64 { return secs * 1e3 }
	us := func(secs float64) float64 { return secs * 1e6 }

	launches := float64(t.launches)
	netOps := float64(t.netOps)
	obs := func(prefix string) float64 {
		var sum float64
		for k, v := range t.obs {
			if k == prefix || strings.HasPrefix(k, prefix+"{") {
				sum += v
			}
		}
		return sum
	}
	net := t.net
	appMsgs := float64(net.AppMsgs())

	// cluster: launcher and recovery ladder.
	put("cluster.spawn_ms", ms(median(t.vals["cluster.spawn"])), "ms")
	put("cluster.teardown_ms", ms(median(t.vals["cluster.teardown"])), "ms")
	put("cluster.relaunch_ms.p50", ms(median(t.vals["cluster.relaunch"])), "ms")
	put("cluster.rollback_ms", ms(median(t.vals["cluster.rollback"])), "ms")
	put("cluster.replays", median(t.vals["cluster.replays"]), "count")
	put("cluster.restarts", median(t.vals["cluster.restarts"]), "count")

	// ckpt: the store behind Env.Checkpoint.
	put("ckpt.save_ms.p50", ms(median(t.durs["ckpt.save"])), "ms")
	put("ckpt.bytes", ratio(obs("sdr_ckpt_bytes_written_total"), launches), "B")

	// core: the replication protocol.
	put("core.isend_us.p50", us(median(t.durs["core.isend"])), "us")
	put("core.irecv_us.p50", us(median(t.durs["core.irecv"])), "us")
	put("core.acks_per_app_msg", ratio(float64(net.AckMsgs()), appMsgs), "ratio")
	put("core.app_msgs_per_send", ratio(appMsgs, float64(t.sends)), "ratio")
	put("core.reexec_ms.p50", ms(median(t.vals["core.reexec"])), "ms")
	put("core.reexec_steps", median(t.vals["core.reexec_steps"]), "count")
	put("core.replayed_msgs", ratio(obs("sdr_core_replayed_msgs_total"), launches), "count")
	// The paper's headline deltas, from the untraced units: replicated
	// against native for the unit of work, the p50 operation and the
	// payload bandwidth (a loss, as Fig 7b plots it).
	put("core.overhead_pct.solve", pctChange(median(plain.solve), median(plain.nativeSolve)), "%")
	put("core.overhead_pct.latency", pctChange(median(plain.lat), median(plain.nativeLat)), "%")
	put("core.overhead_pct.bandwidth", -pctChange(median(plain.bw), median(plain.nativeBW)), "%")

	// Self time per layer: span time minus child spans, over the time
	// under root spans. The mpi layer's spans are Request.Wait calls.
	for l := layer(0); l < nLayers; l++ {
		if l != layerMPI {
			put(layerNames[l]+".self_share", ratio(t.self[l], t.root), "ratio")
		}
	}
	put("mpi.wait_share", ratio(t.self[layerMPI], t.root), "ratio")
	put("mpi.unexpected_hw", t.maxes["mpi.unexpected_hw"], "count")

	// transport: traffic per operation, pools, the batched wire.
	for _, k := range []transport.Kind{transport.KindEager, transport.KindRTS, transport.KindCTS,
		transport.KindData, transport.KindAck, transport.KindCtl} {
		put("transport.msgs_per_op."+k.String(), ratio(float64(net.Msgs[k]), netOps), "count")
	}
	put("transport.bytes_per_op.eager", ratio(float64(net.Bytes[transport.KindEager]), netOps), "B")
	put("transport.bytes_per_op.data", ratio(float64(net.Bytes[transport.KindData]), netOps), "B")
	hits, misses := obs("sdr_transport_pool_hits_total"), obs("sdr_transport_pool_misses_total")
	put("transport.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	flushes, frames := obs("sdr_transport_flushes_total"), obs("sdr_transport_flush_frames_total")
	put("transport.frames_per_flush", ratio(frames, flushes), "ratio")
	put("transport.flushes_per_msg", ratio(flushes, float64(net.TotalMsgs())), "ratio")
	put("transport.ring_frame_share", ratio(t.obs[`sdr_transport_ring_frames_total{dir="out"}`], frames), "ratio")
	put("transport.dropped", obs("sdr_transport_dropped_total"), "count")

	// runtime: CPU, allocation and GC over the traced units.
	put("runtime.cpu_s_per_op", ratio(t.cpu, float64(t.ops)), "s")
	put("runtime.allocs_per_msg", ratio(float64(t.mallocs), float64(net.TotalMsgs())), "count")
	put("runtime.alloc_bytes_per_msg", ratio(float64(t.allocB), float64(net.TotalMsgs())), "B")
	put("runtime.gc_pause_ms", ms(float64(t.gcPauseNs)/1e9), "ms")
	put("runtime.heap_peak_mb", float64(t.heapPeak)/(1<<20), "MB")

	// The end-to-end figures the result object does not gate, from the
	// untraced units.
	_, rest := split(figures(plain))
	for k, v := range rest {
		m[k] = v
	}

	// trace: what tracing itself cost, on the unit of work.
	put("trace.overhead_pct", pctChange(median(traced.solve), median(plain.solve)), "%")
	return m
}
