package main

import (
	"sort"
	"strings"
)

// layerMetrics fills o.layers from a traced run: decorator counters and
// spans (source a), the broker's own counters differenced over the
// window (source b), and the CPU profile (source c).
func layerMetrics(o *outcome, tl *tally, s0, s1 snapshot, rp repairRecord, reoptS, achieved float64,
	cpu map[string]float64, maintEnd map[string]int64) {
	set := func(name string, v float64, unit string) { o.layers[name] = metric{v, unit} }
	const mib = 1 << 20
	putBytes, getBytes := float64(tl.bytes[opPut]), float64(tl.bytes[opGet])
	ops := float64(tl.attempted)

	// Gateway and wire, from the spans of measured ops.
	handler, self, wire := spanSplit(o.spans, s0.spanAt, s1.spanAt)
	set("gateway.handler_ms", handler, "ms")
	set("gateway.self_ms", self, "ms")
	set("wire.ms", wire, "ms")

	lag, _, _ := percentile(tl.lag, 0.99)
	set("loadgen.lag_p99_ms", lag, "ms")
	set("loadgen.achieved_over_offered", achieved, "ratio")

	stage := func(name string) (count, sum float64) {
		a, b := s0.stages[name], s1.stages[name]
		return b[0] - a[0], b[1] - a[1]
	}
	mean := func(name string) float64 {
		n, s := stage(name)
		return safeDiv(s*1000, n)
	}
	set("engine.plan_ms", mean("plan"), "ms")
	set("engine.commit_ms", mean("commit"), "ms")
	set("engine.fanout_ms", mean("fanout"), "ms")
	set("engine.fetch_ms", mean("fetch"), "ms")
	hits, misses := s1.planner[0]-s0.planner[0], s1.planner[1]-s0.planner[1]
	set("core.planner_hit_ratio", safeDiv(float64(hits), float64(hits+misses)), "ratio")

	_, enc := stage("encode")
	set("engine.encode_ms_per_mib", safeDiv(enc*1000, putBytes/mib), "ms/MiB")
	fetched := float64(s1.read.StripesFetched - s0.read.StripesFetched)
	cached := float64(s1.read.StripesFromCache - s0.read.StripesFromCache)
	_, dec := stage("decode")
	set("engine.decode_ms_per_mib", safeDiv(dec*1000, getBytes*safeDiv(fetched, fetched+cached)/mib), "ms/MiB")
	set("engine.read_fallbacks", float64(s1.read.FetchFallbacks-s0.read.FetchFallbacks), "count")
	set("engine.alloc_bytes_per_byte", safeDiv(float64(s1.alloc-s0.alloc), putBytes+getBytes), "ratio")
	set("engine.write_buffered_stripes_peak", float64(s1.write.BufferedStripesPeak), "count")

	pc := s1.prov.sub(s0.prov)
	set("cloud.ops_per_op.get", safeDiv(float64(pc.Gets), ops), "ratio")
	set("cloud.ops_per_op.put", safeDiv(float64(pc.Puts), ops), "ratio")
	set("cloud.ops_per_op.putbatch", safeDiv(float64(pc.Batches), ops), "ratio")
	set("cloud.ops_per_op.delete", safeDiv(float64(pc.Deletes), ops), "ratio")
	set("cloud.read_amp", safeDiv(float64(pc.BytesOut), getBytes), "ratio")
	set("cloud.write_amp", safeDiv(float64(pc.BytesIn), putBytes), "ratio")
	set("cloud.busy_ms", safeDiv(float64(pc.BusyNs)/1e6, ops), "ms")
	set("cloud.failures", float64(pc.Failures), "count")

	ch, cm := s1.cache[0]-s0.cache[0], s1.cache[1]-s0.cache[1]
	set("cache.hit_ratio", safeDiv(float64(ch), float64(ch+cm)), "ratio")
	set("cache.evictions", float64(s1.cache[2]-s0.cache[2]), "count")

	set("repair.affected", float64(rp.rep.Affected), "count")
	set("repair.swapped", float64(rp.rep.Swapped), "count")
	set("repair.restriped", float64(rp.rep.Restriped), "count")
	set("repair.bytes_written_per_affected_byte", safeDiv(float64(rp.rep.BytesWritten), float64(rp.affectedBytes)), "ratio")
	set("engine.repair_s", rp.engineS, "s")
	set("engine.reopt_s", reoptS, "s")
	set("maint.drained", float64(maintEnd["drained"]-s0.maint.Drained), "count")
	set("maint.dropped", float64(maintEnd["dropped"]-s0.maint.Dropped), "count")

	for _, c := range cpuClasses {
		set("cpu."+c, cpu[c], "share")
	}
}

// spanSplit returns, over the op requests whose spans lie in [lo, hi],
// the mean gateway handler time, its self time (handler minus the part
// of its interval covered by its provider spans) and the wire time
// (client-observed minus handler), all in ms.
func spanSplit(spans []span, lo, hi int64) (handler, self, wire float64) {
	gw := map[string]span{}
	cl := map[string]span{}
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Start < lo || s.End > hi || !strings.HasPrefix(s.Parent, "op") {
			continue
		}
		switch {
		case s.Name == "gateway":
			gw[s.Parent] = s
		case s.Name == "client":
			cl[s.Parent] = s
		case strings.HasPrefix(s.Name, "cloud."):
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var hSum, selfSum, wireSum float64
	var wN int
	for id, g := range gw {
		d := float64(g.End - g.Start)
		hSum += d
		selfSum += d - float64(covered(kids[id], g.Start, g.End))
		if c, ok := cl[id]; ok {
			wireSum += float64(c.End-c.Start) - d
			wN++
		}
	}
	n := float64(len(gw))
	return safeDiv(hSum/1e6, n), safeDiv(selfSum/1e6, n), safeDiv(wireSum/1e6, float64(wN))
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		start, end := max(s.Start, cur), min(s.End, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}
