package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/erasure"
	"scalia/internal/obs"
	"scalia/internal/stats"
	"scalia/internal/trend"
)

// OptimizeReport summarizes one periodic optimization procedure
// (paper Fig. 7).
type OptimizeReport struct {
	Leader       string
	Scanned      int // |A|: objects accessed since the last round
	TrendChanged int // objects whose access pattern changed
	Recomputed   int // placements recomputed (Algorithm 1 runs)
	Migrated     int // objects actually moved
	MigrationUSD float64
	// Evaluated counts candidate provider sets examined across every
	// placement search of the round (the Fig. 13 ablation metric),
	// including decision-period coupling probes.
	Evaluated int
	// PlannerHits/PlannerMisses count prepared-search cache lookups
	// served from (hit) or built into (miss) the shared planner during
	// the round. A steady market yields misses only on the first round
	// per rule.
	PlannerHits   uint64
	PlannerMisses uint64
}

// ErrNoLeader is returned when no engine is alive to lead a round.
var ErrNoLeader = errors.New("engine: no alive engine for leader election")

// Optimize runs one optimization procedure: a leader elected among all
// engines retrieves the set A of objects accessed since the last round,
// splits it evenly across engines, and each engine recomputes placement
// only for objects whose access trend changed (§III-A3). Migration
// happens only when the projected savings over the decision period
// exceed the migration cost. Cancelling ctx stops the shard scans;
// objects not yet examined are picked up by a later round.
func (b *Broker) Optimize(ctx context.Context) (OptimizeReport, error) {
	defer b.observeStage(obs.TraceFrom(ctx), "optimize", time.Now())
	leader := b.electLeader()
	if leader == nil {
		return OptimizeReport{}, ErrNoLeader
	}
	b.FlushStats()

	b.mu.Lock()
	since := b.lastOpt
	now := b.clock.Period()
	b.lastOpt = now
	b.mu.Unlock()

	accessed := b.statsDB.AccessedSince(since)
	report := OptimizeReport{Leader: leader.id, Scanned: len(accessed)}
	if len(accessed) == 0 {
		// Quiet round: nothing to shard, skip the fan-out machinery (the
		// common case for a broker ticking every sampling period).
		b.recordOptimize(report)
		return report, nil
	}
	planner0 := b.planner.Stats()

	// Fan out over alive engines (step 3-4 of Fig. 7).
	alive := b.aliveEngines()
	shards := shardObjects(accessed, len(alive))

	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, e := range alive {
		if len(shards[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(e *Engine, objs []string) {
			defer wg.Done()
			local := e.optimizeShard(ctx, objs, now, false)
			mu.Lock()
			report.TrendChanged += local.TrendChanged
			report.Recomputed += local.Recomputed
			report.Migrated += local.Migrated
			report.MigrationUSD += local.MigrationUSD
			report.Evaluated += local.Evaluated
			mu.Unlock()
		}(e, shards[i])
	}
	wg.Wait()
	planner1 := b.planner.Stats()
	report.PlannerHits = planner1.Hits - planner0.Hits
	report.PlannerMisses = planner1.Misses - planner0.Misses
	b.recordOptimize(report)
	return report, ctx.Err()
}

// aliveEngines returns the engines participating in fan-out work.
func (b *Broker) aliveEngines() []*Engine {
	var alive []*Engine
	for _, e := range b.engines {
		if e.Alive() {
			alive = append(alive, e)
		}
	}
	return alive
}

// shardObjects splits the object list round-robin across n workers.
func shardObjects(objs []string, n int) [][]string {
	shards := make([][]string, n)
	for i, obj := range objs {
		shards[i%n] = append(shards[i%n], obj)
	}
	return shards
}

// OptimizeFullScan recomputes every known object's placement without
// trend gating — the full-table-scan baseline the paper rejects as
// unscalable; kept for the ablation benchmark.
func (b *Broker) OptimizeFullScan(ctx context.Context) (OptimizeReport, error) {
	leader := b.electLeader()
	if leader == nil {
		return OptimizeReport{}, ErrNoLeader
	}
	b.FlushStats()
	now := b.clock.Period()
	planner0 := b.planner.Stats()
	report := leader.optimizeShard(ctx, b.statsDB.Objects(), now, true)
	report.Leader = leader.id
	report.Scanned = report.Recomputed
	planner1 := b.planner.Stats()
	report.PlannerHits = planner1.Hits - planner0.Hits
	report.PlannerMisses = planner1.Misses - planner0.Misses
	b.recordOptimize(report)
	return report, ctx.Err()
}

// electLeader picks the alive engine with the lowest identifier — a
// deterministic stand-in for the paper's leader election among engines
// of all datacenters.
func (b *Broker) electLeader() *Engine {
	var leader *Engine
	for _, e := range b.engines {
		if !e.Alive() {
			continue
		}
		if leader == nil || e.id < leader.id {
			leader = e
		}
	}
	return leader
}

// optimizeShard processes one engine's share of the accessed-object set.
// When force is true the trend gate is bypassed.
func (e *Engine) optimizeShard(ctx context.Context, objs []string, now int64, force bool) OptimizeReport {
	var report OptimizeReport
	for _, obj := range objs {
		if ctx.Err() != nil {
			break
		}
		noteProgress(ctx, 1)
		changed := force || e.detectTrendChange(obj, now)
		if !changed {
			continue
		}
		if !force {
			report.TrendChanged++
		}
		migrated, cost, recomputed, evaluated := e.reoptimizeObject(ctx, obj, now)
		report.Evaluated += evaluated
		if recomputed {
			report.Recomputed++
		}
		if migrated {
			report.Migrated++
			report.MigrationUSD += cost
		}
	}
	return report
}

// detectTrendChange applies the momentum detector statelessly over the
// object's recorded history: it compares the SMA of the last w periods
// against the SMA of the preceding w periods.
func (e *Engine) detectTrendChange(obj string, now int64) bool {
	h := e.b.statsDB.History(obj)
	if h == nil {
		return false
	}
	w := e.b.cfg.DetectWindow
	series := h.OpsSeries(now, w+1)
	if len(series) < w+1 {
		return true // young object: history shorter than the window
	}
	var prev, cur float64
	for i := 0; i < w; i++ {
		prev += series[i]
		cur += series[i+1]
	}
	prev /= float64(w)
	cur /= float64(w)
	return trend.Momentum(prev, cur) > e.b.cfg.DetectLimit
}

// reoptimizeObject recomputes an object's placement from its access
// history over the adaptive decision period, migrating when worthwhile.
// evaluated counts the candidate sets examined by this object's
// searches (placement plus coupling probes).
func (e *Engine) reoptimizeObject(ctx context.Context, obj string, now int64) (migrated bool, cost float64, recomputed bool, evaluated int) {
	container, key, ok := splitObjectName(obj)
	if !ok {
		return false, 0, false, 0
	}
	meta, err := e.Head(ctx, container, key)
	if err != nil {
		return false, 0, false, 0
	}
	h := e.b.statsDB.History(obj)
	if h == nil {
		return false, 0, false, 0
	}
	rule := e.b.rules.Resolve(container, key, meta.Class)

	d, coupleEval := e.updateDecisionPeriod(obj, meta, h, rule, now)
	evaluated += coupleEval
	sum := h.Summary(now, d)
	sum.StorageBytes = float64(meta.Size)

	// placeWithRetry (not a bare planner call): the planned providers are
	// re-verified as reachable, so a backend that died without a registry
	// event (no epoch bump) is excluded instead of poisoning the
	// migration target until the next market change.
	res, err := e.placeWithRetry(rule, sum, meta.Size)
	evaluated += res.Evaluated
	if err != nil {
		return false, 0, true, evaluated
	}
	cur := currentPlacementFromMeta(e, meta)
	if res.Placement.Equal(cur) {
		return false, 0, true, evaluated
	}
	// Migrate only if the savings over the benefit horizon cover the
	// migration cost (§III-A3). The horizon is the decision period,
	// stretched to the object's expected remaining lifetime and the
	// configured minimum.
	horizon := d
	if ttl := e.ttlPeriods(obj, meta, now); ttl > horizon {
		horizon = ttl
	}
	if e.b.cfg.MigrationHorizon > horizon {
		horizon = e.b.cfg.MigrationHorizon
	}
	curPrice := core.PeriodCost(cur, sum, e.b.cfg.PeriodHours)
	saving := (curPrice - res.Price) * float64(horizon)
	migCost := core.MigrationCost(cur, res.Placement, float64(meta.Size)/1e9)
	if saving <= migCost {
		return false, 0, true, evaluated
	}
	if err := e.migrate(ctx, meta, res.Placement); err != nil {
		return false, 0, true, evaluated
	}
	e.b.setPlacement(obj, res.Placement)
	return true, migCost, true, evaluated
}

// updateDecisionPeriod runs the coupling evaluation (D/2, D, 2D) when
// the object's controller is due, returning the decision period to use
// and the number of candidate sets the probes examined. The coupling
// probes share one prepared search: the market does not change between
// the D/2, D and 2D evaluations.
func (e *Engine) updateDecisionPeriod(obj string, meta ObjectMeta, h *stats.History, rule core.Rule, now int64) (int, int) {
	e.b.mu.Lock()
	ctl, ok := e.b.decisions[obj]
	if !ok {
		initial := e.b.cfg.DecisionPeriod
		// Seed from the class's expected lifetime when available: a
		// short-lived class should not be optimized with a long horizon.
		if ttl, ok := e.b.statsDB.Classes().ExpectedTTL(meta.Class, e.b.statsDB.AgeHours(obj, now)); ok {
			if p := int(ttl / e.b.cfg.PeriodHours); p >= core.MinDecisionPeriod && p < initial {
				initial = p
			}
		}
		ctl = core.NewDecisionController(initial, 0)
		e.b.decisions[obj] = ctl
	}
	due := ctl.Tick()
	e.b.mu.Unlock()
	if !due {
		return ctl.D(), 0
	}

	// limit = min(TTL_obj, |H_obj|) in sampling periods.
	limit := h.Span(now)
	if ttl := e.ttlPeriods(obj, meta, now); ttl > 0 && ttl < limit {
		limit = ttl
	}
	cands := ctl.Candidates(limit)
	epoch, specs, free := e.b.market()
	evaluated := 0
	search, err := e.b.planner.Search(epoch, specs, rule)
	bestIdx, bestPrice := 1, 0.0
	if err == nil {
		for i, d := range cands {
			sum := h.Summary(now, d)
			sum.StorageBytes = float64(meta.Size)
			res := search.Best(sum, meta.Size, free)
			evaluated += res.Evaluated
			if !res.Feasible {
				continue
			}
			if i == 0 || res.Price < bestPrice {
				bestIdx, bestPrice = i, res.Price
			}
		}
	}
	e.b.mu.Lock()
	ctl.Update(bestIdx, cands)
	d := ctl.D()
	e.b.mu.Unlock()
	return d, evaluated
}

// ttlPeriods resolves the object's time left to live in sampling
// periods: the user hint first, then the class lifetime statistics.
func (e *Engine) ttlPeriods(obj string, meta ObjectMeta, now int64) int {
	age := e.b.statsDB.AgeHours(obj, now)
	if meta.TTLHours > 0 {
		left := meta.TTLHours - age
		if left < 0 {
			left = 0
		}
		return int(left / e.b.cfg.PeriodHours)
	}
	if ttl, ok := e.b.statsDB.Classes().ExpectedTTL(meta.Class, age); ok {
		return int(ttl / e.b.cfg.PeriodHours)
	}
	return 0
}

// currentPlacementFromMeta rebuilds the Placement from stored chunk
// locations (engines are stateless; the broker's placement map is only a
// cache).
func currentPlacementFromMeta(e *Engine, meta ObjectMeta) core.Placement {
	if p, ok := e.b.CurrentPlacement(objectName(meta.Container, meta.Key)); ok {
		return p
	}
	p := core.Placement{M: meta.M}
	for _, name := range meta.Chunks {
		if s, ok := e.b.registry.Store(name); ok {
			p.Providers = append(p.Providers, s.Spec())
		}
	}
	return p
}

// migrate moves an object to a new placement, streaming stripe by
// stripe: each stripe is reconstructed from the current chunks,
// re-encoded for the target placement and written out before the next
// stripe is read, so migration of a large object never buffers it
// whole. The superseded chunks are deleted once the new metadata is
// committed.
func (e *Engine) migrate(ctx context.Context, meta ObjectMeta, to core.Placement) error {
	src, err := e.openObjectReader(ctx, meta, false)
	if err != nil {
		return fmt.Errorf("engine: migrate read: %w", err)
	}
	defer src.Close()
	uuid := NewUUID()
	newMeta := meta
	newMeta.UUID = uuid
	newMeta.SKey = StorageKey(meta.Container, meta.Key, uuid)
	newMeta.M = to.M
	// The copy keeps the version's Checksum (a body MD5 or a multipart
	// composite — the ETag clients hold) and skips re-hashing the body:
	// the source stream verifies every stripe it decodes, and comparing
	// the rewritten stripe digests with the stored ones checks the copy
	// end to end, stripe by stripe.
	if err := e.writeChunksStream(ctx, &newMeta, to, src, true); err != nil {
		return fmt.Errorf("engine: migrate write: %w", err)
	}
	if !slices.Equal(newMeta.StripeSums, meta.StripeSums) {
		e.deleteChunks(newMeta)
		return fmt.Errorf("engine: migrate: %w", ErrChecksum)
	}
	ts := e.b.clock.Timestamp()
	version, err := encodeMeta(newMeta, ts)
	if err != nil {
		e.deleteChunks(newMeta)
		return err
	}
	// Commit under the row lock, and only if the version we migrated is
	// still the live one: a client write (or delete) that landed while
	// the chunks were copying must win — a background migration may
	// never clobber an acknowledged update or resurrect a tombstone.
	row := RowKey(meta.Container, meta.Key)
	lk := e.b.rowLock(row)
	lk.Lock()
	cur, losers := e.currentVersion(row)
	if cur == nil || cur.UUID != meta.UUID {
		lk.Unlock()
		e.deleteChunks(newMeta)
		e.cleanupVersions(losers)
		return fmt.Errorf("engine: migrate: object changed mid-migration")
	}
	if err := e.b.meta.Put(e.dc, row, version); err != nil {
		lk.Unlock()
		e.deleteChunks(newMeta)
		return err
	}
	lk.Unlock()
	e.cleanupVersions(losers)
	e.deleteChunks(meta)
	e.invalidateCached(meta)
	return nil
}

// VerifyObject checks that an object's stored chunks are sufficient and
// parity-consistent across every stripe, returning the minimum number
// of reachable chunks over the stripes. Verification reads every chunk
// from its provider (never the stripe cache — a cached stripe proves
// nothing about chunk health), fanning the per-stripe fetches out over
// the read path's bounded worker pool.
func (e *Engine) VerifyObject(ctx context.Context, container, key string) (reachable int, err error) {
	meta, err := e.Head(ctx, container, key)
	if err != nil {
		return 0, err
	}
	n := len(meta.Chunks)
	coder, err := erasure.Cached(meta.M, n)
	if err != nil {
		return 0, err
	}
	workers := e.b.cfg.ReadParallelism
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	reachable = n
	for s := 0; s < meta.StripeCount(); s++ {
		chunks := make([][]byte, n)
		var stripeReachable atomic.Int32
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, name := range meta.Chunks {
			st, ok := e.b.registry.Store(name)
			if !ok || !st.Available() {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, st cloud.Backend) {
				defer wg.Done()
				defer func() { <-sem }()
				if data, err := st.Get(ctx, meta.chunkKey(s, i)); err == nil {
					chunks[i] = data
					stripeReachable.Add(1)
				}
			}(i, st)
		}
		wg.Wait()
		got := int(stripeReachable.Load())
		if err := ctx.Err(); err != nil {
			return reachable, err
		}
		if got < reachable {
			reachable = got
		}
		if got < meta.M {
			return reachable, ErrNotEnoughChunks
		}
		if got == n {
			ok, err := coder.Verify(chunks)
			if err != nil {
				return reachable, err
			}
			if !ok {
				return reachable, ErrChecksum
			}
		}
	}
	return reachable, nil
}

// splitObjectName parses "container/key" (keys may contain slashes).
func splitObjectName(obj string) (container, key string, ok bool) {
	i := strings.IndexByte(obj, '/')
	if i <= 0 || i == len(obj)-1 {
		return "", "", false
	}
	return obj[:i], obj[i+1:], true
}
