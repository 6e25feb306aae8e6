// Command perfbench is the repository's benchmark. It boots a Scalia
// deployment in-process with scalia-server's default configuration,
// drives one named workload against it over loopback HTTP through the
// typed scalia/client, checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer split) as one JSON line.
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"scalia"
)

func main() {
	name := flag.String("workload", "", "workload: bulk, web-zipf or churn-repair")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured window, seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps of traced runs")
	flag.Parse()

	p, err := defaults(*name)
	if err != nil {
		fatalf("%v", err)
	}
	clients := p.Clients
	if clients <= 0 {
		clients = runtime.NumCPU()
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, p: p, clients: clients}
	ctx := context.Background()

	u, err := run(ctx, cfg)
	if err != nil {
		fatalf("%s seed %d: %v", *name, *seed, err)
	}
	res := result{Attempted: u.attempted, Failed: u.failed, Correct: u.correct, Metrics: map[string]metric{}}
	if *trace == 0 {
		u.print(os.Stdout)
		res.Metrics = u.e2e
	} else {
		cfg.traced = true
		t, err := run(ctx, cfg)
		if err != nil {
			fatalf("%s seed %d traced: %v", *name, *seed, err)
		}
		t.print(os.Stdout)
		res.Attempted, res.Failed = u.attempted+t.attempted, u.failed+t.failed
		res.Correct = u.correct && t.correct
		for k, m := range t.layers {
			res.Metrics[k] = m
		}
		for k, um := range u.e2e {
			tm := t.e2e[k]
			pct := 0.0
			if um.Value != 0 {
				pct = 100 * (tm.Value - um.Value) / um.Value
			}
			res.Metrics["trace.overhead_pct."+k] = metric{pct, "%"}
		}
		fmt.Println("fidelity (untraced vs traced):", fidelity(u, t))
		if err := writeSpans(filepath.Join(*out, fmt.Sprintf("spans-%s-%d.ndjson", *name, *seed)), t.spans); err != nil {
			fatalf("write spans: %v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	p        params
	clients  int
	traced   bool
}

// snapshot is the counters read at a window boundary.
type snapshot struct {
	at        time.Time
	cost      float64
	prov      providerCounts
	stages    map[string][2]float64 // stage -> {count, sum seconds}
	planner   [2]int64              // hits, misses
	cache     [3]int64              // hits, misses, evictions
	read      scalia.ReadPathStats
	write     scalia.WritePathStats
	maint     scalia.MaintStats
	alloc     uint64
	stripesWr int64
	spanAt    int64 // ns since the span log's base (traced runs)
}

func takeSnapshot(d *deployment) snapshot {
	b := d.broker
	s := snapshot{at: time.Now(), cost: b.Registry().TotalCost(), prov: d.counts(),
		stages: map[string][2]float64{}, read: b.ReadStats(), write: b.WriteStats(), maint: b.MaintStats()}
	for _, h := range b.Metrics().Histograms("scalia_stage_duration_seconds") {
		s.stages[h.Labels["stage"]] = [2]float64{float64(h.Snapshot.Count), h.Snapshot.Sum}
	}
	ps := b.Planner().Stats()
	s.planner = [2]int64{int64(ps.Hits), int64(ps.Misses)}
	cs := b.Caches().Stats()
	s.cache = [3]int64{cs.Hits, cs.Misses, cs.Evictions}
	s.stripesWr = s.write.StripesWritten
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.alloc = m.TotalAlloc
	if d.spans != nil {
		s.spanAt = int64(s.at.Sub(d.spans.base))
	}
	return s
}

// outcome is one run's results.
type outcome struct {
	workload  string
	attempted int
	failed    int
	correct   bool
	e2e       map[string]metric
	layers    map[string]metric
	notes     []string
	spans     []span
	// fidelity counters: must agree between traced and untraced runs of
	// an open-loop workload.
	provOps   providerCounts
	stripesWr int64
}

func (o *outcome) print(f *os.File) {
	for _, n := range o.notes {
		fmt.Fprintln(f, n)
	}
	for _, set := range []map[string]metric{o.e2e, o.layers} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(f, "%-44s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
}

// repairRecord is what a repair event measured.
type repairRecord struct {
	seconds       float64
	engineS       float64 // the broker's own "repair" stage time
	rep           scalia.RepairReport
	affectedBytes int64
}

// run boots the deployment p.Setups times (keeping the last), drives
// the workload through its window and events, checks the deployment at
// rest and computes the metrics.
func run(ctx context.Context, cfg runConfig) (*outcome, error) {
	p := cfg.p
	pl := makePlan(cfg.workload, cfg.seed, p, cfg.seconds)
	pay := newPayloads(cfg.seed, p.largest())
	dc := deployConfig{clients: cfg.clients, traced: cfg.traced, rtt: map[string]time.Duration{}}
	if p.RTTs {
		for n, v := range rtts {
			dc.rtt[n] = time.Duration(v * float64(time.Millisecond))
		}
	}
	var (
		d      *deployment
		setups []float64
	)
	for rep := 0; rep < max(p.Setups, 1); rep++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if d, err = boot(dc); err != nil {
			return nil, err
		}
		if err := seedNamespace(ctx, d, pay, &pl, cfg.clients); err != nil {
			d.close()
			return nil, fmt.Errorf("seed namespace: %w", err)
		}
		if err := warmCaches(ctx, d, &pl); err != nil {
			d.close()
			return nil, fmt.Errorf("warm caches: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	// Collect the set-up garbage but keep its pages: returning them to
	// the OS here would make the window's first seconds page-fault.
	runtime.GC()
	d.setModeled(true)

	o := &outcome{workload: cfg.workload, e2e: map[string]metric{}, layers: map[string]metric{}}
	tl := newTally()
	for _, k := range pl.Seeded {
		tl.live(k, true)
	}
	opID := func(int) string { return "" }
	if cfg.traced {
		opID = func(i int) string { return "op" + strconv.Itoa(i) }
	}
	var (
		s0, s1    snapshot
		haveEnd   bool
		cpuProf   bytes.Buffer
		profiling bool
		repair    repairRecord
		reoptDone = make(chan reoptResult, 1)
		reopt     bool
		down      *provider
	)
	mark := func() error {
		resetPeakRSS()
		s0 = takeSnapshot(d)
		if cfg.traced {
			if err := pprof.StartCPUProfile(&cpuProf); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
			profiling = true
		}
		return nil
	}
	end := func() {
		if haveEnd {
			return
		}
		haveEnd = true
		s1 = takeSnapshot(d)
		o.notes = append(o.notes, "provider bytes at window end: "+d.usage())
		if profiling {
			pprof.StopCPUProfile()
			profiling = false
		}
	}
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()
	evCtx := func(k eventKind) context.Context { return withOpID(ctx, idFor(cfg.traced, k)) }
	fireEvent := func(ev event) error {
		switch ev.Kind {
		case evOutage:
			o.notes = append(o.notes, "provider bytes at outage: "+d.usage())
			down = d.provider(chaosTarget)
			if _, err := d.client.UpdateProviderAvailability(evCtx(ev.Kind), down.name, false); err != nil {
				return err
			}
			// The outage's reoptimization work belongs to the barrier, so
			// the repair after it starts from the same state every run.
			return settle(ctx, d)
		case evRepair:
			repair.affectedBytes = affectedBytes(d, tl, &pl, down)
			before := takeSnapshot(d).stages["repair"][1]
			// Start the repair from a collected heap, so its time does
			// not depend on where the window left the GC cycle.
			runtime.GC()
			t0 := time.Now()
			rep, err := d.client.Repair(evCtx(ev.Kind), scalia.RepairActive)
			repair.seconds = time.Since(t0).Seconds()
			repair.engineS = takeSnapshot(d).stages["repair"][1] - before
			repair.rep = rep
			o.notes = append(o.notes, fmt.Sprintf("repair: %.3fs, %d affected (%d bytes), %d swapped, %d restriped",
				repair.seconds, rep.Affected, repair.affectedBytes, rep.Swapped, rep.Restriped))
			if err == nil && (rep.Skipped > 0 || rep.Repaired != rep.Affected) {
				err = fmt.Errorf("repair left objects unrepaired: %+v", rep)
			}
			return err
		case evRecover:
			if _, err := d.client.UpdateProviderAvailability(evCtx(ev.Kind), down.name, true); err != nil {
				return err
			}
			d.broker.ProcessPendingDeletes(ctx)
			return settle(ctx, d)
		case evPrice:
			o.notes = append(o.notes, "provider bytes at price change: "+d.usage())
			target := d.provider(chaosTarget)
			pr := target.Spec().Pricing
			pr.StorageGBMonth *= 3
			pr.BandwidthOutGB *= 2
			t0 := time.Now()
			if _, err := d.client.UpdateProviderPricing(evCtx(ev.Kind), target.name, pr); err != nil {
				return err
			}
			reopt = true
			go func() {
				err := settle(ctx, d)
				reoptDone <- reoptResult{time.Since(t0).Seconds(), err}
			}()
		}
		return nil
	}
	fireAt := func(at int) error {
		for _, ev := range pl.Events {
			if ev.At == at {
				if err := fireEvent(ev); err != nil {
					return fmt.Errorf("event %s: %w", ev.Kind, err)
				}
			}
		}
		return nil
	}

	var (
		window   time.Duration
		achieved = 1.0
	)
	if cfg.workload == "bulk" {
		var err error
		window, err = runClosed(ctx, d, pay, &pl, cfg.clients, cfg.seconds, mark, tl, opID)
		if err != nil {
			return nil, err
		}
		end()
		if err := fireAt(0); err != nil {
			return nil, err
		}
	} else {
		barriers := map[int]bool{pl.Warm: true}
		for _, ev := range pl.Events {
			barriers[ev.At] = true
		}
		span, err := runOpen(ctx, d, pay, &pl, cfg.clients, barriers, func(ctx context.Context, at int) error {
			if at == pl.Warm {
				if err := mark(); err != nil {
					return err
				}
			}
			if at >= len(pl.Ops) {
				end()
			}
			return fireAt(at)
		}, tl, opID)
		if err != nil {
			return nil, err
		}
		end()
		window = span
		offered := float64(len(pl.Ops)-pl.Warm) / p.Rate
		achieved = offered / span.Seconds()
	}
	reoptS := 0.0
	if reopt {
		r := <-reoptDone
		if r.err != nil {
			return nil, r.err
		}
		reoptS = r.seconds
	}
	if err := settle(ctx, d); err != nil {
		return nil, err
	}
	o.attempted, o.failed, o.correct = tl.attempted, tl.failed(), true
	check := func(ok bool, format string, args ...any) {
		if !ok {
			o.correct = false
			o.notes = append(o.notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
		}
	}
	check(tl.mismatch == nil, "%v", tl.mismatch)
	rs, ws := d.broker.ReadStats(), d.broker.WriteStats()
	check(rs.BufferedStripes == 0, "read buffers held at rest: %d", rs.BufferedStripes)
	check(ws.StripesInFlight == 0, "write buffers held at rest: %d", ws.StripesInFlight)
	check(ws.ActiveUploads == 0, "multipart uploads open at rest: %d", ws.ActiveUploads)
	liveBytes, err := checkListing(ctx, d, tl, &pl)
	check(err == nil, "listing: %v", err)
	if achieved < 0.95 {
		return nil, fmt.Errorf("run invalid: the generator fell behind (achieved %.3f of the offered rate)", achieved)
	}
	if len(tl.failures) > 0 {
		o.notes = append(o.notes, fmt.Sprintf("failures by code: %v", tl.failures))
	}

	// End-to-end metrics.
	o.e2e["setup_s"] = metric{median(setups), "s"}
	putSvc, getSvc := float64(tl.svcNs[opPut])/1e9, float64(tl.svcNs[opGet])/1e9
	o.e2e["put_mb_s"] = metric{safeDiv(float64(tl.bytes[opPut])/1e6, putSvc), "MB/s"}
	o.e2e["get_mb_s"] = metric{safeDiv(float64(tl.bytes[opGet])/1e6, getSvc), "MB/s"}
	for _, k := range []opKind{opGet, opPut} {
		v50, _, n := percentile(tl.lat[k], 0.50)
		v99, q, _ := percentile(tl.lat[k], 0.99)
		o.e2e[k.String()+"_p50_ms"] = metric{v50, "ms"}
		o.e2e[k.String()+"_p99_ms"] = metric{v99, "ms"}
		o.notes = append(o.notes, fmt.Sprintf("%s latency: %d samples; p99 reported as p%.2f (nearest rank, >=10 samples beyond)", k, n, 100*q))
		var qs []string
		for _, f := range []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95, 0.98} {
			v, _, _ := percentile(tl.lat[k], f)
			qs = append(qs, fmt.Sprintf("p%.0f=%.3f", 100*f, v))
		}
		o.notes = append(o.notes, fmt.Sprintf("%s latency quantiles (ms): %s", k, strings.Join(qs, " ")))
	}
	o.e2e["success_rate"] = metric{safeDiv(float64(tl.attempted-o.failed), float64(tl.attempted)), "ratio"}
	o.e2e["repair_s"] = metric{repair.seconds, "s"}
	bill := s1.cost - s0.cost
	if cfg.workload == "bulk" {
		// A closed loop's bill grows with its speed; price a fixed amount
		// of work instead: 100 PUT+GET cycles.
		bill = safeDiv(bill, float64(len(tl.lat[opPut]))) * 100
	}
	o.e2e["billed_usd"] = metric{bill, "USD"}
	o.e2e["space_amp"] = metric{safeDiv(float64(d.usedBytes()), float64(liveBytes)), "ratio"}
	o.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	o.notes = append(o.notes, fmt.Sprintf("window %.2fs, ops %d, failed %d, live objects %d (%d bytes)",
		window.Seconds(), tl.attempted, o.failed, len(tl.liveSet), liveBytes))

	o.provOps = s1.prov.sub(s0.prov)
	o.stripesWr = s1.stripesWr - s0.stripesWr
	if !cfg.traced {
		return o, nil
	}

	// Per-layer metrics of the traced run.
	cpu, err := cpuShares(cpuProf.Bytes())
	if err != nil {
		return nil, err
	}
	o.spans = d.spans.snapshot()
	maint := d.broker.MaintStats()
	layerMetrics(o, tl, s0, s1, repair, reoptS, achieved, cpu,
		map[string]int64{"drained": maint.Drained, "dropped": maint.Dropped})
	return o, nil
}

// reoptResult is the reoptimization queue's time to idle after the
// price change.
type reoptResult struct {
	seconds float64
	err     error
}

// settle waits until the reoptimization queue is idle, failing the run
// if it is not within a minute.
func settle(ctx context.Context, d *deployment) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := d.broker.WaitMaintIdle(ctx); err != nil {
		return fmt.Errorf("reoptimization queue not idle: %w", err)
	}
	return nil
}

// idFor names a chaos event's admin request in traced runs.
func idFor(traced bool, k eventKind) string {
	if !traced {
		return ""
	}
	return "evt-" + string(k)
}

// affectedBytes sums the user bytes of live objects with a chunk at the
// downed provider.
func affectedBytes(d *deployment, tl *tally, pl *plan, down *provider) int64 {
	if down == nil {
		return 0
	}
	var n int64
	for k := range tl.liveSnapshot() {
		pm, ok := d.broker.CurrentPlacement(container + "/" + keyName(k))
		if !ok {
			continue
		}
		for _, s := range pm.Providers {
			if s.Name == down.name {
				n += pl.Sizes[k]
				break
			}
		}
	}
	return n
}

// checkListing verifies that the container lists exactly the objects
// the benchmark expects to be live, and returns their user bytes.
func checkListing(ctx context.Context, d *deployment, tl *tally, pl *plan) (int64, error) {
	keys, err := d.client.ListAll(ctx, container, "")
	if err != nil {
		return 0, err
	}
	live := tl.liveSnapshot()
	if len(keys) != len(live) {
		return 0, fmt.Errorf("%d objects listed, %d expected", len(keys), len(live))
	}
	var n int64
	for _, k := range keys {
		i, err := strconv.Atoi(strings.TrimPrefix(k, "k"))
		if _, ok := live[i]; err != nil || !ok {
			return 0, fmt.Errorf("unexpected object %q", k)
		}
		n += pl.Sizes[i]
	}
	return n, nil
}

// percentile returns the nearest-rank q-quantile of samples, lowered as
// needed so that at least ten samples lie beyond it; it also returns the
// quantile actually used and the sample count.
func percentile(samples []float64, q float64) (float64, float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if limit := 1 - 10/float64(n); q > limit {
		q = max(limit, 0.5)
	}
	i := int(float64(n)*q+0.999999) - 1
	return s[min(max(i, 0), n-1)], q, n
}

func median(v []float64) float64 {
	m, _, _ := percentile(v, 0.5)
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS restarts the kernel's VmHWM high-water mark at the
// current RSS, so peak_rss_mb covers the measured run only.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported kernels keep the lifetime peak
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// fidelity compares the counts a traced and an untraced run of the same
// seed must agree on.
func fidelity(u, t *outcome) string {
	eq := func(a, b float64) string {
		if a == b {
			return "equal"
		}
		return fmt.Sprintf("%g vs %g", a, b)
	}
	return fmt.Sprintf("provider gets %s, puts %s, batches %s, deletes %s, stripes written %s, billed_usd %s, space_amp %s",
		eq(float64(u.provOps.Gets), float64(t.provOps.Gets)), eq(float64(u.provOps.Puts), float64(t.provOps.Puts)),
		eq(float64(u.provOps.Batches), float64(t.provOps.Batches)), eq(float64(u.provOps.Deletes), float64(t.provOps.Deletes)),
		eq(float64(u.stripesWr), float64(t.stripesWr)), eq(u.e2e["billed_usd"].Value, t.e2e["billed_usd"].Value),
		eq(u.e2e["space_amp"].Value, t.e2e["space_amp"].Value))
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
