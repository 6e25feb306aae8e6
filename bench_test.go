package scalia

// One benchmark per table/figure of the paper's evaluation (the
// regenerators behind DESIGN.md's experiment index), plus the ablation
// benches for the design choices DESIGN.md calls out. Figure benches
// report the headline reproduction metric (over-cost %) via
// b.ReportMetric, so `go test -bench .` doubles as the reproduction
// harness summary.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/engine"
	"scalia/internal/erasure"
	"scalia/internal/sim"
	"scalia/internal/stats"
	"scalia/internal/trend"
	"scalia/internal/workload"
)

var bgctx = context.Background()

// --- Figure/table regenerators ---

func BenchmarkFig02Rules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range core.PaperRules() {
			if err := r.Validate(); err != nil {
				b.Fatal(err)
			}
			_ = r.MinProviders()
		}
	}
}

func BenchmarkFig03Providers(b *testing.B) {
	load := stats.Summary{Periods: 1, Reads: 10, BytesOut: 1e7, StorageBytes: 1e6}
	for i := 0; i < b.N; i++ {
		specs := cloud.PaperProviders()
		p := core.Placement{Providers: specs, M: 4}
		_ = core.PeriodCost(p, load, 1)
	}
}

func BenchmarkFig05Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := stats.NewLifetimeDist(0)
		for j := 0; j < 20; j++ {
			d.Observe(6 * float64(j) / 19)
		}
		_ = d.TTLCurve(0.5, 6)
	}
}

func BenchmarkFig08TrendHourly(b *testing.B) {
	series := workload.NewWebsite().HourlySeries(7 * 24)
	b.ResetTimer()
	var changes int
	for i := 0; i < b.N; i++ {
		changes = len(trend.Detect(series, 3, 0.1))
	}
	b.ReportMetric(float64(changes), "detections")
}

func BenchmarkFig09TrendDaily(b *testing.B) {
	series := workload.NewWebsite().DailySeries(90)
	b.ResetTimer()
	var changes int
	for i := 0; i < b.N; i++ {
		changes = len(trend.Detect(series, 3, 0.1))
	}
	b.ReportMetric(float64(changes), "detections")
}

func BenchmarkFig12SlashdotResources(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := sim.SlashdotExperiment()
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range res.Resources {
			if pt.BwOutGB > peak {
				peak = pt.BwOutGB
			}
		}
	}
	b.ReportMetric(peak, "peak-bwout-GB")
}

func BenchmarkFig13Sets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(sim.StaticSets()); got != 26 {
			b.Fatalf("sets = %d", got)
		}
	}
}

func BenchmarkFig14SlashdotOverCost(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := sim.SlashdotExperiment()
		if err != nil {
			b.Fatal(err)
		}
		over = res.ScaliaOverPct
	}
	b.ReportMetric(over, "scalia-over-%")
}

func BenchmarkFig15GalleryResources(b *testing.B) {
	var storage float64
	for i := 0; i < b.N; i++ {
		res, err := sim.GalleryExperiment()
		if err != nil {
			b.Fatal(err)
		}
		storage = res.Resources[len(res.Resources)-1].StorageGB
	}
	b.ReportMetric(storage, "final-storage-GB")
}

func BenchmarkFig16GalleryOverCost(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := sim.GalleryExperiment()
		if err != nil {
			b.Fatal(err)
		}
		over = res.ScaliaOverPct
	}
	b.ReportMetric(over, "scalia-over-%")
}

func BenchmarkFig17AddProvider(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := sim.AddProviderExperiment()
		if err != nil {
			b.Fatal(err)
		}
		over = res.ScaliaOverPct
	}
	b.ReportMetric(over, "scalia-over-%")
}

func BenchmarkFig18ActiveRepair(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, static, err := sim.RepairExperiment()
		if err != nil {
			b.Fatal(err)
		}
		gap = static[len(static)-1] - res.CumulativeScalia[len(res.CumulativeScalia)-1]
	}
	b.ReportMetric(gap, "scalia-saving-USD")
}

// --- Ablations (DESIGN.md §5) ---

func benchPlacement(b *testing.B, pruned bool) {
	load := stats.Summary{Periods: 1, Reads: 25, BytesOut: 25e6, StorageBytes: 1e6}
	rule := core.Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	specs := cloud.PaperProviders()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BestPlacement(specs, rule, load, core.Options{Pruned: pruned}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementExact(b *testing.B)  { benchPlacement(b, false) }
func BenchmarkPlacementPruned(b *testing.B) { benchPlacement(b, true) }

func BenchmarkPlacementPrepared(b *testing.B) {
	load := stats.Summary{Periods: 1, Reads: 25, BytesOut: 25e6, StorageBytes: 1e6}
	rule := core.Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	search, err := core.NewSearch(cloud.PaperProviders(), rule, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := search.Best(load, 0, nil); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkPlannerReuse contrasts per-object placement from scratch
// (core.BestPlacement re-runs feasibility filtering for every object)
// against the shared planner's epoch-cached prepared searches, across
// 1k objects with mixed rules — the hot-path win of the planner layer.
// ns/op is per 1000 placements.
func BenchmarkPlannerReuse(b *testing.B) {
	specs := cloud.PaperProviders()
	rules := core.PaperRules()
	const objects = 1000
	loads := make([]stats.Summary, objects)
	for i := range loads {
		loads[i] = stats.Summary{
			Periods: 1, Reads: float64(i % 50), Writes: 1,
			BytesOut: float64(i%50) * 1e6, BytesIn: 1e6,
			StorageBytes: float64(1+i%40) * 1e6,
		}
	}
	b.Run("per-object-bestplacement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < objects; j++ {
				if _, err := core.BestPlacement(specs, rules[j%len(rules)], loads[j], core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("planner-cached", func(b *testing.B) {
		b.ReportAllocs()
		planner := core.NewPlanner(1, false)
		for i := 0; i < b.N; i++ {
			for j := 0; j < objects; j++ {
				if _, err := planner.Best(1, specs, rules[j%len(rules)], loads[j], 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func newBenchBroker(b *testing.B, objects int) (*engine.Broker, *engine.SimClock) {
	b.Helper()
	clock := engine.NewSimClock()
	br := engine.NewBroker(engine.Config{Clock: clock})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	for i := 0; i < objects; i++ {
		if _, err := e.Put(bgctx, "c", fmt.Sprintf("k%d", i), make([]byte, 4096), engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	br.FlushStats()
	return br, clock
}

func BenchmarkOptimizeTrendGated(b *testing.B) {
	br, clock := newBenchBroker(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1)
		if _, err := br.Optimize(bgctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeFullScan(b *testing.B) {
	br, clock := newBenchBroker(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1)
		if _, err := br.OptimizeFullScan(bgctx); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead(b *testing.B, cacheBytes int64) {
	br := engine.NewBroker(engine.Config{CacheBytes: cacheBytes})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	if _, err := e.Put(bgctx, "c", "k", make([]byte, 256<<10), engine.PutOptions{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Get(bgctx, "c", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCached(b *testing.B)   { benchRead(b, 64<<20) }
func BenchmarkReadUncached(b *testing.B) { benchRead(b, 0) }

func BenchmarkDecisionCoupling(b *testing.B) {
	h := stats.NewHistory(0)
	for p := int64(0); p < 200; p++ {
		h.Record(stats.Sample{Period: p, Reads: p % 24, BytesOut: (p % 24) * 1e6, StorageBytes: 1e6})
	}
	rule := core.Rule{Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	search, err := core.NewSearch(cloud.PaperProviders(), rule, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := core.NewDecisionController(24, 0)
		for round := 0; round < 16; round++ {
			if !ctl.Tick() {
				continue
			}
			cands := ctl.Candidates(h.Span(199))
			bestIdx, bestPrice := 1, 0.0
			for j, d := range cands {
				sum := h.Summary(199, d)
				r := search.Best(sum, 0, nil)
				if j == 0 || r.Price < bestPrice {
					bestIdx, bestPrice = j, r.Price
				}
			}
			ctl.Update(bestIdx, cands)
		}
	}
}

func benchErasure(b *testing.B, m, n, size int) {
	coder, err := erasure.New(m, n)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coder.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureEncode_m1n2_1MB(b *testing.B)  { benchErasure(b, 1, 2, 1<<20) }
func BenchmarkErasureEncode_m3n5_1MB(b *testing.B)  { benchErasure(b, 3, 5, 1<<20) }
func BenchmarkErasureEncode_m4n5_1MB(b *testing.B)  { benchErasure(b, 4, 5, 1<<20) }
func BenchmarkErasureEncode_m4n5_40MB(b *testing.B) { benchErasure(b, 4, 5, 40<<20) }

// BenchmarkEncode is the bench-gate guard for the table-driven encode
// kernels: the acceptance geometry (m=4, n=8) at a 4 MiB stripe on the
// pooled path, which must stay at 0 allocs/op. MB/s here is what the
// write and repair paths see per stripe.
func BenchmarkEncode(b *testing.B) {
	coder, err := erasure.Cached(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := coder.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		erasure.ReleaseChunks(chunks)
	}
}

// BenchmarkDecode is the bench-gate guard for the reconstruct kernels:
// the same geometry with one data and one parity chunk lost, so every
// iteration pays the decode-matrix inversion plus the kernel work of
// regenerating both chunks and reassembling the stripe.
func BenchmarkDecode(b *testing.B) {
	coder, err := erasure.Cached(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	chunks, err := coder.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	damaged := make([][]byte, len(chunks))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(damaged, chunks)
		damaged[1], damaged[6] = nil, nil
		got, err := coder.Decode(damaged, len(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(data) {
			b.Fatal("short decode")
		}
	}
}

func BenchmarkErasureDecodeWithLoss(b *testing.B) {
	coder, _ := erasure.New(3, 5)
	data := make([]byte, 1<<20)
	chunks, _ := coder.Encode(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		damaged := make([][]byte, len(chunks))
		copy(damaged, chunks)
		damaged[0], damaged[3] = nil, nil
		if _, err := coder.Decode(damaged, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// slowBackend delays chunk fetches by a fixed latency, standing in for
// the provider round-trip that dominates real GET latency. Writes stay
// fast so benchmark setup is cheap.
type slowBackend struct {
	*cloud.BlobStore
	delay time.Duration
}

func (s *slowBackend) Get(ctx context.Context, key string) ([]byte, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.BlobStore.Get(ctx, key)
}

func slowRegistry(delay time.Duration) *cloud.Registry {
	reg := cloud.NewRegistry()
	for _, spec := range cloud.PaperProviders() {
		reg.Register(&slowBackend{BlobStore: cloud.NewBlobStore(spec), delay: delay})
	}
	return reg
}

// BenchmarkGetLargeObject measures the streaming GET of an 8-stripe,
// m=4 object against providers with a simulated per-fetch round-trip:
// the sequential seed path (one chunk at a time, no read-ahead) vs the
// parallel chunk fan-out with stripe prefetch, vs a stripe-cache hit.
// The acceptance bar for the read-path rebuild is parallel-prefetch
// >= 2x faster than sequential; the bench-gate CI job watches all
// three for regressions.
func BenchmarkGetLargeObject(b *testing.B) {
	const (
		stripeBytes  = 256 << 10
		stripes      = 8
		chunkLatency = 300 * time.Microsecond
	)
	payload := make([]byte, stripes*stripeBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	rule := core.Rule{Name: "bench", Durability: 0.99999, Availability: 0.9999, LockIn: 1}

	run := func(b *testing.B, cfg engine.Config, warmCache bool) {
		b.Helper()
		cfg.Registry = slowRegistry(chunkLatency)
		cfg.StripeBytes = stripeBytes
		br := engine.NewBroker(cfg)
		b.Cleanup(br.Close)
		e := br.Engine(0)
		meta, err := e.Put(bgctx, "big", "blob", payload, engine.PutOptions{Rule: &rule})
		if err != nil {
			b.Fatal(err)
		}
		if meta.M != 4 || meta.StripeCount() != stripes {
			b.Fatalf("placement m=%d stripes=%d, want m=4 stripes=%d", meta.M, meta.StripeCount(), stripes)
		}
		if warmCache {
			if _, _, err := e.Get(bgctx, "big", "blob"); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, _, err := e.Get(bgctx, "big", "blob")
			if err != nil || len(got) != len(payload) {
				b.Fatalf("get: %v (%d bytes)", err, len(got))
			}
		}
	}

	b.Run("sequential", func(b *testing.B) {
		run(b, engine.Config{ReadParallelism: -1, PrefetchStripes: -1}, false)
	})
	b.Run("parallel-prefetch", func(b *testing.B) {
		run(b, engine.Config{}, false)
	})
	b.Run("stripe-cached", func(b *testing.B) {
		run(b, engine.Config{CacheBytes: 64 << 20}, true)
	})
}

func slowRWRegistry(delay time.Duration) *cloud.Registry {
	reg := cloud.NewRegistry()
	for _, spec := range cloud.PaperProviders() {
		reg.Register(&slowRWBackend{BlobStore: cloud.NewBlobStore(spec), delay: delay})
	}
	return reg
}

// BenchmarkPutLargeObject measures the streaming PUT of an 8-stripe,
// m=4 object against providers with a simulated per-op round-trip: the
// sequential seed path (encode stripe s, fan it out, wait, touch
// stripe s+1) vs the write pipeline (stripe s+1 erasure-codes while
// stripe s's chunks are in flight) vs the pipeline squeezed through a
// two-slot shared buffer budget. The acceptance bar for the write-path
// rebuild is pipelined >= 2x faster than sequential; the bench-gate CI
// job watches all three for regressions.
func BenchmarkPutLargeObject(b *testing.B) {
	const (
		stripeBytes  = 256 << 10
		stripes      = 8
		chunkLatency = 5 * time.Millisecond
	)
	payload := make([]byte, stripes*stripeBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	rule := core.Rule{Name: "bench", Durability: 0.99999, Availability: 0.9999, LockIn: 1}

	run := func(b *testing.B, cfg engine.Config) {
		b.Helper()
		cfg.Registry = slowRWRegistry(chunkLatency)
		cfg.StripeBytes = stripeBytes
		br := engine.NewBroker(cfg)
		b.Cleanup(br.Close)
		e := br.Engine(0)
		meta, err := e.PutReader(bgctx, "big", "blob", bytes.NewReader(payload), int64(len(payload)), engine.PutOptions{Rule: &rule})
		if err != nil {
			b.Fatal(err)
		}
		if meta.M != 4 || meta.StripeCount() != stripes {
			b.Fatalf("placement m=%d stripes=%d, want m=4 stripes=%d", meta.M, meta.StripeCount(), stripes)
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.PutReader(bgctx, "big", "blob", bytes.NewReader(payload), int64(len(payload)), engine.PutOptions{Rule: &rule}); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("sequential", func(b *testing.B) {
		run(b, engine.Config{WritePipelineDepth: -1})
	})
	b.Run("pipelined", func(b *testing.B) {
		run(b, engine.Config{})
	})
	b.Run("pipelined-budget-contended", func(b *testing.B) {
		// Two budget slots for eight stripes: the pipeline stalls on the
		// shared read/write buffer budget, not on the providers. Still
		// faster than sequential (two stripes overlap), but bounded.
		run(b, engine.Config{MaxBufferBytes: 2 * stripeBytes})
	})
}

// cpuBenchObject is the object the zero-RTT engine benches move: 16 MiB,
// four default-size stripes, on an m=4 placement over plain in-memory
// BlobStore providers.
const cpuBenchObject = 16 << 20

// newCPUBenchEngine boots a broker over zero-latency providers with no
// stripe cache and stores the bench object once, so both CPU benches
// see only the data path's own work: hashing, erasure coding, copies
// and allocation — the cost the RTT-sleeping Put/GetLargeObject benches
// hide.
func newCPUBenchEngine(b *testing.B) (*engine.Engine, []byte, engine.PutOptions) {
	b.Helper()
	payload := make([]byte, cpuBenchObject)
	for i := range payload {
		payload[i] = byte(i*31 + i>>12)
	}
	rule := core.Rule{Name: "bench", Durability: 0.99999, Availability: 0.9999, LockIn: 1}
	opts := engine.PutOptions{Rule: &rule}
	br := engine.NewBroker(engine.Config{})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	meta, err := e.PutReader(bgctx, "cpu", "blob", bytes.NewReader(payload), int64(len(payload)), opts)
	if err != nil {
		b.Fatal(err)
	}
	if meta.M != 4 || meta.StripeCount() != cpuBenchObject/engine.DefaultStripeBytes {
		b.Fatalf("placement m=%d stripes=%d, want m=4 stripes=%d", meta.M, meta.StripeCount(), cpuBenchObject/engine.DefaultStripeBytes)
	}
	return e, payload, opts
}

// BenchmarkPutObjectCPU measures a streaming 16 MiB PUT with zero
// provider latency: CPU-bound end to end.
func BenchmarkPutObjectCPU(b *testing.B) {
	e, payload, opts := newCPUBenchEngine(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PutReader(bgctx, "cpu", "blob", bytes.NewReader(payload), int64(len(payload)), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetObjectCPU measures an uncached 16 MiB GET with zero
// provider latency: every stripe is fetched, decoded and verified.
func BenchmarkGetObjectCPU(b *testing.B) {
	e, payload, _ := newCPUBenchEngine(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := e.Get(bgctx, "cpu", "blob")
		if err != nil || len(got) != len(payload) {
			b.Fatalf("get: %v (%d bytes)", err, len(got))
		}
	}
}

func BenchmarkBrokerPut(b *testing.B) {
	br := engine.NewBroker(engine.Config{})
	b.Cleanup(br.Close)
	e := br.Engine(0)
	payload := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Put(bgctx, "c", fmt.Sprintf("k%d", i), payload, engine.PutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// slowRWBackend delays both chunk reads and writes by the provider
// round-trip, for benchmarks whose hot path is write traffic (repair).
type slowRWBackend struct {
	*cloud.BlobStore
	delay time.Duration
}

func (s *slowRWBackend) Get(ctx context.Context, key string) ([]byte, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.BlobStore.Get(ctx, key)
}

func (s *slowRWBackend) Put(ctx context.Context, key string, data []byte) error {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.BlobStore.Put(ctx, key, data)
}

// PutBatch pays the round-trip ONCE for the whole batch — the
// amortization the swap batcher exists to exploit. Without this
// override the embedded BlobStore's PutBatch would be free of the
// simulated latency entirely.
func (s *slowRWBackend) PutBatch(ctx context.Context, items []cloud.BatchItem) error {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.BlobStore.PutBatch(ctx, items)
}

// BenchmarkRepairSwap measures one active repair of an 8-stripe (m=2,
// n=3) object after a single provider failure, against providers with a
// simulated per-op round-trip: the same-(m,n) chunk-swap path (write
// only the missing chunk of every stripe, update metadata in place) vs
// the forced full re-stripe (read, re-encode and rewrite everything).
// The paper's §IV-E claim is the acceptance bar: the swap must write
// strictly fewer bytes — reported as bytes-written/op and chunks/op —
// and take less wall time per repair. The bench-gate CI job watches
// both for regressions.
func BenchmarkRepairSwap(b *testing.B) {
	const (
		stripeBytes = 128 << 10
		stripes     = 8
		opLatency   = 300 * time.Microsecond
	)
	payload := make([]byte, stripes*stripeBytes)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	rule := core.Rule{Name: "wide", Durability: 0.9999, Availability: 0.99, LockIn: 1.0 / 3}

	run := func(b *testing.B, force bool) {
		b.Helper()
		reg := cloud.NewRegistry()
		// D is priced so the optimizer never includes it up front: it
		// exists purely as the repair spare.
		prices := []cloud.Pricing{
			{StorageGBMonth: 0.10, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			{StorageGBMonth: 0.11, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			{StorageGBMonth: 0.12, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			{StorageGBMonth: 0.50, BandwidthInGB: 0.5, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		}
		for i, name := range []string{"A", "B", "C", "D"} {
			reg.Register(&slowRWBackend{BlobStore: cloud.NewBlobStore(cloud.Spec{
				Name: name, Durability: 0.9999, Availability: 0.999,
				Zones:   []cloud.Zone{cloud.ZoneUS},
				Pricing: prices[i],
			}), delay: opLatency})
		}
		br := engine.NewBroker(engine.Config{
			Registry: reg, StripeBytes: stripeBytes, ForceRestripeRepair: force,
		})
		b.Cleanup(br.Close)
		br.Rules().SetContainerRule("bk", rule)
		e := br.Engine(0)
		meta, err := e.Put(bgctx, "bk", "obj", payload, engine.PutOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if meta.M != 2 || len(meta.Chunks) != 3 {
			b.Fatalf("placement m=%d n=%d, want (2, 3)", meta.M, len(meta.Chunks))
		}
		var bytesWritten, chunksWritten int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			meta, err := e.Head(bgctx, "bk", "obj")
			if err != nil {
				b.Fatal(err)
			}
			victim := meta.Chunks[0]
			if !br.Registry().SetAvailable(victim, false) {
				b.Fatalf("cannot down %s", victim)
			}
			b.StartTimer()
			rep, err := br.Repair(bgctx, engine.RepairActive)
			b.StopTimer()
			if err != nil || rep.Repaired != 1 {
				b.Fatalf("repair: %v (%+v)", err, rep)
			}
			if force && rep.Restriped != 1 || !force && rep.Swapped != 1 {
				b.Fatalf("wrong repair mechanism: %+v (force=%v)", rep, force)
			}
			bytesWritten += rep.BytesWritten
			chunksWritten += int64(rep.ChunksWritten)
			br.Registry().SetAvailable(victim, true)
			br.ProcessPendingDeletes(bgctx)
			b.StartTimer()
		}
		b.ReportMetric(float64(bytesWritten)/float64(b.N), "bytes-written/op")
		b.ReportMetric(float64(chunksWritten)/float64(b.N), "chunks/op")
	}

	b.Run("swap", func(b *testing.B) { run(b, false) })
	b.Run("restripe", func(b *testing.B) { run(b, true) })
}

// BenchmarkRepairAffected measures one repair pass after a
// single-provider outage affecting ~1% of a multi-thousand-object
// store: the provider→objects inverted index enumerates only the
// affected objects, against the pre-index full scan kept as
// RepairFullScan. objects-checked/op is the headline ablation metric —
// indexed stays at the affected count while fullscan walks the store.
func BenchmarkRepairAffected(b *testing.B) {
	const total, affectedPct = 3000, 100 // 1 in 100 objects lands on the victim
	setup := func(b *testing.B) *engine.Broker {
		b.Helper()
		reg := cloud.NewRegistry()
		for _, name := range []string{"A", "B", "C"} {
			reg.Register(cloud.NewBlobStore(cloud.Spec{
				Name: name, Durability: 0.99999, Availability: 0.999,
				Zones:   []cloud.Zone{cloud.ZoneUS},
				Pricing: cloud.Pricing{StorageGBMonth: 0.10, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
			}))
		}
		// The victim serves a zone of its own so only the "vic"
		// container's rule ever places chunks there.
		reg.Register(cloud.NewBlobStore(cloud.Spec{
			Name: "V", Durability: 0.99999, Availability: 0.999,
			Zones:   []cloud.Zone{cloud.ZoneAPAC},
			Pricing: cloud.Pricing{StorageGBMonth: 0.10, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		}))
		br := engine.NewBroker(engine.Config{Registry: reg, Clock: engine.NewSimClock()})
		b.Cleanup(br.Close)
		br.Rules().SetContainerRule("hot", core.Rule{
			Durability: 0.9999, Availability: 0.99, Zones: []cloud.Zone{cloud.ZoneUS}, LockIn: 1.0 / 3,
		})
		br.Rules().SetContainerRule("vic", core.Rule{
			Durability: 0.999, Availability: 0.99, Zones: []cloud.Zone{cloud.ZoneAPAC}, LockIn: 1,
		})
		e := br.Engine(0)
		payload := make([]byte, 512)
		for i := 0; i < total; i++ {
			container := "hot"
			if i%affectedPct == 0 {
				container = "vic"
			}
			if _, err := e.Put(bgctx, container, fmt.Sprintf("k%d", i), payload, engine.PutOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		br.FlushStats()
		return br
	}
	run := func(b *testing.B, pass func(*engine.Broker) (engine.RepairReport, error)) {
		b.Helper()
		br := setup(b)
		var checked, affected int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.Registry().SetAvailable("V", false)
			rep, err := pass(br)
			if err != nil || rep.Affected != total/affectedPct {
				b.Fatalf("repair: %v (%+v)", err, rep)
			}
			br.Registry().SetAvailable("V", true)
			checked += int64(rep.Checked)
			affected += int64(rep.Affected)
		}
		b.ReportMetric(float64(checked)/float64(b.N), "objects-checked/op")
		b.ReportMetric(float64(affected)/float64(b.N), "objects-affected/op")
	}
	b.Run("indexed", func(b *testing.B) {
		run(b, func(br *engine.Broker) (engine.RepairReport, error) {
			return br.Repair(bgctx, engine.RepairWait)
		})
	})
	b.Run("fullscan", func(b *testing.B) {
		run(b, func(br *engine.Broker) (engine.RepairReport, error) {
			return br.RepairFullScan(bgctx, engine.RepairWait)
		})
	})
}

// BenchmarkReoptimizeEvent measures reacting to one market event (a
// pricing change on a provider carrying data): the event-driven path
// drains exactly the invalidated objects from the maintenance queue,
// against the periodic full-store Optimize the event path replaces.
// The two pricing sheets differ by a hair so the re-plan keeps every
// placement put — isolating invalidation + re-plan cost from migration
// traffic.
func BenchmarkReoptimizeEvent(b *testing.B) {
	sheets := []cloud.Pricing{
		{StorageGBMonth: 0.100, BandwidthInGB: 0.10, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		{StorageGBMonth: 0.101, BandwidthInGB: 0.10, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
	}
	b.Run("event-drain", func(b *testing.B) {
		br, _ := newBenchBroker(b, 512)
		victim := br.ProviderIndex().ProviderNames()[0]
		var drained int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := br.Registry().UpdatePricing(victim, sheets[i%2]); err != nil {
				b.Fatal(err)
			}
			drained += int64(br.DrainMaintenance(bgctx))
		}
		b.ReportMetric(float64(drained)/float64(b.N), "objects-replanned/op")
	})
	b.Run("full-optimize", func(b *testing.B) {
		br, clock := newBenchBroker(b, 512)
		victim := br.ProviderIndex().ProviderNames()[0]
		var scanned int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := br.Registry().UpdatePricing(victim, sheets[i%2]); err != nil {
				b.Fatal(err)
			}
			clock.Advance(1)
			rep, err := br.OptimizeFullScan(bgctx)
			if err != nil {
				b.Fatal(err)
			}
			scanned += int64(rep.Scanned)
		}
		b.ReportMetric(float64(scanned)/float64(b.N), "objects-replanned/op")
	})
}
