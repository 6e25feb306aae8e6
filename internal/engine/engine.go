package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/metadata"
	"scalia/internal/obs"
	"scalia/internal/stats"
)

// Engine errors. They are sentinel values so API layers can map them to
// protocol status codes (the v1 gateway's statusFromErr).
var (
	ErrObjectNotFound  = errors.New("engine: object not found")
	ErrChecksum        = errors.New("engine: checksum mismatch after reconstruction")
	ErrNotEnoughChunks = errors.New("engine: not enough reachable chunks to reconstruct")
	// ErrInvalidArgument marks malformed requests (missing container or
	// key, negative size, short body); gateways map it to 400.
	ErrInvalidArgument = errors.New("engine: invalid argument")
	// ErrPreconditionFailed is returned when a conditional operation's
	// expected ETag does not match the stored version; mapped to 412.
	ErrPreconditionFailed = errors.New("engine: precondition failed")
	// ErrRangeNotSatisfiable marks a byte-range request that lies
	// entirely outside the object; gateways map it to 416.
	ErrRangeNotSatisfiable = errors.New("engine: range not satisfiable")
)

// Engine is one stateless broker engine. All state lives in the shared
// metadata, cache and statistics layers, so engines scale by addition
// (§III-A). Each engine belongs to one datacenter and serves requests
// against that datacenter's metadata node and cache.
type Engine struct {
	id    string
	dc    string
	b     *Broker
	agent *stats.Agent

	mu    sync.Mutex
	alive bool
}

// ID returns the engine identifier.
func (e *Engine) ID() string { return e.id }

// Datacenter returns the engine's datacenter.
func (e *Engine) Datacenter() string { return e.dc }

// SetAlive marks the engine up or down (for leader-election tests and
// failure injection).
func (e *Engine) SetAlive(up bool) {
	e.mu.Lock()
	e.alive = up
	e.mu.Unlock()
}

// Alive reports whether the engine participates in optimization.
func (e *Engine) Alive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alive
}

// PutOptions carries optional write parameters.
type PutOptions struct {
	MIME string
	// TTLHours is the user's lifetime hint (§III-A: "an indication of the
	// object lifetime may be provided by the end user at write time").
	TTLHours float64
	// Rule overrides rule resolution for this object.
	Rule *core.Rule
	// IfMatch, when non-empty, makes the write conditional: it succeeds
	// only if the stored version's ETag equals IfMatch ("*" matches any
	// existing version). A mismatch fails with ErrPreconditionFailed.
	IfMatch string
	// IfAbsent makes the write create-only: it fails with
	// ErrPreconditionFailed when a live version already exists.
	IfAbsent bool
}

// objectName joins container and key into the statistics identity.
func objectName(container, key string) string { return container + "/" + key }

// Put stores (or updates) an object from an in-memory payload. It is a
// thin compatibility wrapper over PutReader.
func (e *Engine) Put(ctx context.Context, container, key string, data []byte, opts PutOptions) (ObjectMeta, error) {
	return e.PutReader(ctx, container, key, bytes.NewReader(data), int64(len(data)), opts)
}

// PutReader stores (or updates) an object streamed from r: it picks the
// best provider set for the object's class and rule, splits the body
// into stripes of at most the deployment's stripe size, erasure-codes
// each stripe into chunks written under a fresh UUID-derived storage
// key, records metadata via MVCC, invalidates caches and logs
// statistics (§III-D1). The body is never materialized whole: at most
// one stripe is buffered at a time, so arbitrarily large objects stream
// through in constant memory. size must be the exact body length.
// Cancelling ctx aborts the in-flight chunk fan-out and rolls back the
// chunks already written.
func (e *Engine) PutReader(ctx context.Context, container, key string, r io.Reader, size int64, opts PutOptions) (ObjectMeta, error) {
	if container == "" || key == "" {
		return ObjectMeta{}, fmt.Errorf("%w: container and key are required", ErrInvalidArgument)
	}
	if size < 0 {
		return ObjectMeta{}, fmt.Errorf("%w: object size must be declared up front", ErrInvalidArgument)
	}
	class := stats.ClassKey(opts.MIME, size)
	rule := e.b.rules.Resolve(container, key, class)
	if opts.Rule != nil {
		rule = *opts.Rule
		if err := rule.Validate(); err != nil {
			return ObjectMeta{}, err
		}
	}
	obj := objectName(container, key)
	now := e.b.clock.Period()

	tr := obs.TraceFrom(ctx)
	load := e.writeLoad(obj, class, size)
	planStart := time.Now()
	res, err := e.placeWithRetry(rule, load, size)
	if err != nil {
		return ObjectMeta{}, err
	}
	e.b.observeStage(tr, "plan", planStart)

	// Fast-fail the precondition before any chunk traffic; the
	// authoritative check repeats under the row lock at commit time.
	row := RowKey(container, key)
	prev, losers := e.currentVersion(row)
	e.cleanupVersions(losers)
	if err := checkWriteConditions(opts, prev); err != nil {
		return ObjectMeta{}, err
	}

	uuid := NewUUID()
	meta := ObjectMeta{
		Container:   container,
		Key:         key,
		MIME:        opts.MIME,
		Size:        size,
		RuleName:    rule.Name,
		Class:       class,
		SKey:        StorageKey(container, key, uuid),
		M:           res.Placement.M,
		UUID:        uuid,
		TTLHours:    opts.TTLHours,
		CreatedAt:   now,
		Stripes:     stripeCount(size, e.b.cfg.StripeBytes),
		StripeBytes: e.b.cfg.StripeBytes,
	}
	if err := e.writeChunksStream(ctx, &meta, res.Placement, r, false); err != nil {
		return ObjectMeta{}, err
	}

	// Commit under the row lock — one batched metadata commit per
	// object, no matter how many stripes streamed through above.
	commitStart := time.Now()
	prev, err = e.commitObject(&meta, opts)
	e.b.observeStage(tr, "commit", commitStart)
	if err != nil {
		return ObjectMeta{}, err
	}

	// Update is in place: discard the superseded version's chunks and
	// cached stripes (outside the lock — chunk deletion may hit remote
	// providers). Cache keys are versioned, so the new version can
	// never hit a stale entry even before this invalidation lands; the
	// eager purge just frees the space.
	if prev != nil {
		e.deleteChunks(*prev)
		e.invalidateCached(*prev)
	}
	e.b.setPlacement(obj, res.Placement)
	e.agent.Log(stats.Event{
		Object: obj, Class: class, Kind: stats.EventWrite,
		Bytes: size, StorageBytes: size, Period: now,
	})
	return meta, nil
}

// commitObject publishes meta as its row's live version under the row
// lock: the stored version is re-read and the write preconditions
// re-checked inside the lock, so two concurrent conditional writes
// cannot both pass the check-then-act window. The body transfer runs
// unlocked; only this metadata commit serializes. On success the
// superseded version (nil if none) is returned for the caller to clean
// up; on failure meta's staged chunks are rolled back — except after a
// listing-index failure, where the object itself committed and the
// chunks must survive.
func (e *Engine) commitObject(meta *ObjectMeta, opts PutOptions) (*ObjectMeta, error) {
	row := RowKey(meta.Container, meta.Key)
	lk := e.b.rowLock(row)
	lk.Lock()
	prev, losers := e.currentVersion(row)
	if err := checkWriteConditions(opts, prev); err != nil {
		lk.Unlock()
		e.deleteChunks(*meta) // the loser's chunks, staged above
		e.cleanupVersions(losers)
		return nil, err
	}
	if prev != nil {
		meta.CreatedAt = prev.CreatedAt
	}
	ts := e.b.clock.Timestamp()
	version, err := encodeMeta(*meta, ts)
	if err != nil {
		lk.Unlock()
		e.deleteChunks(*meta) // commit never happened; reclaim the chunks
		return nil, err
	}
	if err := e.b.meta.Put(e.dc, row, version); err != nil {
		lk.Unlock()
		e.deleteChunks(*meta)
		return nil, fmt.Errorf("engine: metadata write: %w", err)
	}
	if err := e.b.writeIndex(e.dc, meta.Container, meta.Key, meta.UUID, ts); err != nil {
		// The object itself committed; only the listing entry failed.
		// Keep the chunks — deleting them now would corrupt a readable
		// object.
		lk.Unlock()
		return nil, err
	}
	lk.Unlock()
	e.cleanupVersions(losers)
	return prev, nil
}

// currentVersion reads a row's live version. Conflict losers are
// returned for the caller to clean up outside any row lock (their
// chunk deletions may hit remote providers).
func (e *Engine) currentVersion(row string) (prev *ObjectMeta, losers []metadata.Version) {
	node := e.b.meta.Store(e.dc)
	v, losers, err := node.Get(row)
	if err != nil {
		return nil, nil
	}
	if m, err := decodeMeta(v); err == nil {
		prev = &m
	}
	return prev, losers
}

// checkWriteConditions evaluates a write's If-Match / create-only
// preconditions against the stored version (nil = absent).
func checkWriteConditions(opts PutOptions, prev *ObjectMeta) error {
	if opts.IfAbsent && prev != nil {
		return fmt.Errorf("%w: object already exists", ErrPreconditionFailed)
	}
	return checkPrecondition(opts.IfMatch, prev)
}

// checkPrecondition evaluates an If-Match condition against the stored
// version (nil = absent).
func checkPrecondition(ifMatch string, prev *ObjectMeta) error {
	if ifMatch == "" {
		return nil
	}
	if prev == nil {
		return fmt.Errorf("%w: no stored version to match", ErrPreconditionFailed)
	}
	if ifMatch != "*" && ifMatch != prev.ETag() && ifMatch != prev.Checksum {
		return fmt.Errorf("%w: stored version is %s", ErrPreconditionFailed, prev.ETag())
	}
	return nil
}

// stripeCount returns how many stripes an object of the given size
// occupies under the configured stripe size (at least 1).
func stripeCount(size, stripeBytes int64) int {
	if stripeBytes <= 0 || size <= stripeBytes {
		return 1
	}
	return int((size + stripeBytes - 1) / stripeBytes)
}

// writeLoad builds the pricing summary for a write: the object's own
// history when present, otherwise the class expectation (Fig. 6),
// otherwise just this write.
func (e *Engine) writeLoad(obj, class string, size int64) stats.Summary {
	if h := e.b.statsDB.History(obj); h != nil && h.Len() > 0 {
		now := e.b.clock.Period()
		d := e.decisionWindow(obj, now)
		sum := h.Summary(now, d)
		sum.StorageBytes = float64(size)
		return sum
	}
	if rec, ok := e.b.statsDB.Classes().Lookup(class); ok {
		if sum, ok := rec.ExpectedSummary(); ok {
			sum.StorageBytes = float64(size)
			return sum
		}
	}
	return stats.Summary{
		Periods: 1, Writes: 1,
		BytesIn: float64(size), StorageBytes: float64(size),
	}
}

// placeWithRetry plans the placement through the broker's shared
// planner, excluding providers that fail mid-write ("Scalia will choose
// the best placement that does not include the faulty provider",
// §III-D3). The common case is a single planner hit; a provider found
// unreachable after the decision (including one whose outage was
// injected directly on the backend, bypassing the registry's market
// epoch) drops to an ad-hoc search over the reduced market. The retry
// loop is bounded by the provider count.
func (e *Engine) placeWithRetry(rule core.Rule, load stats.Summary, size int64) (core.Result, error) {
	epoch, specs, free := e.b.market()
	planned := true
	for len(specs) > 0 {
		var res core.Result
		var err error
		if planned {
			res, err = e.b.planner.Best(epoch, specs, rule, load, size, free)
		} else {
			res, err = core.BestPlacement(specs, rule, load, core.Options{
				PeriodHours: e.b.cfg.PeriodHours,
				Pruned:      e.b.cfg.Pruned,
				FreeBytes:   free,
				ObjectBytes: size,
			})
		}
		if err != nil {
			return core.Result{}, err
		}
		// Verify reachability now (a provider may have gone down between
		// the snapshot and the placement decision).
		ok := true
		for _, spec := range res.Placement.Providers {
			if s, found := e.b.registry.Store(spec.Name); !found || !s.Available() {
				specs = removeSpec(specs, spec.Name)
				planned = false
				ok = false
				break
			}
		}
		if ok {
			return res, nil
		}
	}
	return core.Result{}, core.ErrNoProviders
}

// removeSpec returns specs without the named provider. It copies: the
// input may be the registry's shared market snapshot.
func removeSpec(specs []cloud.Spec, name string) []cloud.Spec {
	out := make([]cloud.Spec, 0, len(specs))
	for _, s := range specs {
		if s.Name != name {
			out = append(out, s)
		}
	}
	return out
}

// Get serves an object fully buffered: stripes come from the stripe
// cache where present, otherwise they are reconstructed from the m
// cheapest reachable chunks, cached, and the read is logged (§III-D2).
// It is a thin wrapper over GetReader.
func (e *Engine) Get(ctx context.Context, container, key string) ([]byte, ObjectMeta, error) {
	rc, meta, err := e.GetReader(ctx, container, key)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	return data, meta, nil
}

// GetReader serves an object as a stream. Each stripe is consulted in
// the stripe-granular cache first; missing stripes are fetched from the
// m cheapest reachable providers with a bounded parallel chunk fan-out
// and decoded, and the stream is pipelined: while one stripe drains to
// the caller, the next ones prefetch in the background
// (Config.ReadParallelism / Config.PrefetchStripes). The first stripe
// is produced eagerly so placement and availability errors surface on
// the call itself rather than mid-stream; the content checksum is
// verified as the last stripe drains (on fully provider-fetched
// streams). Cancelling ctx tears down the prefetcher and all in-flight
// chunk fetches.
func (e *Engine) GetReader(ctx context.Context, container, key string) (io.ReadCloser, ObjectMeta, error) {
	meta, err := e.headMeta(container, key)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	// The read event is logged by the reader itself once the stream
	// completes (or with the bytes actually delivered, on early Close),
	// so aborted downloads do not inflate the statistics that drive
	// placement.
	or, err := e.openObjectReader(ctx, meta, true)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	return or, meta, nil
}

// GetRangeReader serves the byte range [offset, offset+length) of an
// object as a stream. The range maps onto whole stripes: only the
// stripes it overlaps are consulted in the cache or fetched, so a
// ranged read of a huge object touches a handful of stripes instead of
// all of them. length is clamped to the object end; length -1 means
// "to the object end" (matching the remote client's GetRange). A range
// starting at or past the object end fails with ErrRangeNotSatisfiable.
func (e *Engine) GetRangeReader(ctx context.Context, container, key string, offset, length int64) (io.ReadCloser, ObjectMeta, error) {
	if offset < 0 || length == 0 || length < -1 {
		return nil, ObjectMeta{}, fmt.Errorf("%w: range offset %d length %d", ErrInvalidArgument, offset, length)
	}
	meta, err := e.headMeta(container, key)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	if offset >= meta.Size {
		return nil, ObjectMeta{}, fmt.Errorf("%w: offset %d of %d-byte object",
			ErrRangeNotSatisfiable, offset, meta.Size)
	}
	if rest := meta.Size - offset; length < 0 || length > rest {
		length = rest
	}
	span := meta.stripeSpan()
	start := int(offset / span)
	end := int((offset + length - 1) / span)
	or, err := e.openObjectRange(ctx, meta, start, end, true)
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	// Discard the lead-in of the first stripe — the eager open already
	// decoded it — and keep it out of the read statistics: only bytes
	// the client can actually receive drive placement.
	or.cur = or.cur[offset-int64(start)*span:]
	or.fetched = int64(len(or.cur))
	return &rangeReader{or: or, remaining: length}, meta, nil
}

// headMeta resolves an object's live metadata from the engine's
// datacenter node, garbage-collecting MVCC conflict losers on the way.
func (e *Engine) headMeta(container, key string) (ObjectMeta, error) {
	node := e.b.meta.Store(e.dc)
	v, losers, err := node.Get(RowKey(container, key))
	if err != nil {
		if errors.Is(err, metadata.ErrRowNotFound) {
			return ObjectMeta{}, ErrObjectNotFound
		}
		return ObjectMeta{}, err
	}
	e.cleanupVersions(losers)
	return decodeMeta(v)
}

// Delete removes an object: tombstones its metadata, deletes chunks
// (postponing those at faulty providers), invalidates caches and logs
// the deletion for lifetime statistics. A non-empty ifMatch in opts
// makes the delete conditional on the stored ETag.
func (e *Engine) Delete(ctx context.Context, container, key string) error {
	return e.DeleteIf(ctx, container, key, "")
}

// DeleteIf is Delete with an optional If-Match precondition ("" = none).
// The precondition check and the tombstone write run under the row
// lock, so a concurrent conditional write cannot slip between them.
func (e *Engine) DeleteIf(ctx context.Context, container, key, ifMatch string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	obj := objectName(container, key)
	row := RowKey(container, key)

	lk := e.b.rowLock(row)
	lk.Lock()
	prev, losers := e.currentVersion(row)
	if prev == nil {
		lk.Unlock()
		e.cleanupVersions(losers)
		return ErrObjectNotFound
	}
	if err := checkPrecondition(ifMatch, prev); err != nil {
		lk.Unlock()
		e.cleanupVersions(losers)
		return err
	}
	ts := e.b.clock.Timestamp()
	if err := e.b.meta.Put(e.dc, row, metadata.Version{
		UUID: NewUUID(), Timestamp: ts, Deleted: true,
	}); err != nil {
		lk.Unlock()
		return err
	}
	if err := e.b.removeIndex(e.dc, container, key, NewUUID(), ts); err != nil {
		lk.Unlock()
		return err
	}
	lk.Unlock()
	e.cleanupVersions(losers)
	meta := *prev
	e.deleteChunks(meta)
	e.invalidateCached(meta)
	e.b.dropPlacement(obj)
	e.agent.Log(stats.Event{
		Object: obj, Class: meta.Class, Kind: stats.EventDelete,
		StorageBytes: 0, Period: e.b.clock.Period(),
	})
	return nil
}

// List returns the keys stored in a container, sorted.
func (e *Engine) List(ctx context.Context, container string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.b.listContainer(e.dc, container)
}

// Head returns an object's metadata without transferring the payload.
func (e *Engine) Head(ctx context.Context, container, key string) (ObjectMeta, error) {
	if err := ctx.Err(); err != nil {
		return ObjectMeta{}, err
	}
	return e.headMeta(container, key)
}

// deleteChunks removes every chunk of every stripe of a version,
// postponing deletions at unreachable providers.
func (e *Engine) deleteChunks(meta ObjectMeta) {
	for s := 0; s < meta.StripeCount(); s++ {
		for i, name := range meta.Chunks {
			e.deleteChunkAt(name, meta.chunkKey(s, i))
		}
	}
}

// deleteChunkAt removes one chunk. Chunk deletion is cleanup that must
// survive request cancellation, so it runs on a background context.
func (e *Engine) deleteChunkAt(provider, chunkKey string) {
	store, ok := e.b.registry.Store(provider)
	if !ok {
		return // provider gone; chunks die with it
	}
	t0 := time.Now()
	err := store.Delete(context.Background(), chunkKey)
	e.b.observeProviderOp(provider, "delete", t0, err)
	if err != nil {
		if errors.Is(err, cloud.ErrUnavailable) {
			e.b.enqueuePendingDelete(provider, chunkKey)
		}
		// Missing chunks are already gone; nothing to do.
	}
}

// cleanupVersions garbage-collects MVCC conflict losers: their chunks
// are removed from the storage providers and their stripes from the
// caches (Fig. 10).
func (e *Engine) cleanupVersions(losers []metadata.Version) {
	for _, v := range losers {
		if v.Deleted {
			continue
		}
		if m, err := decodeMeta(v); err == nil {
			e.deleteChunks(m)
			e.invalidateCached(m)
		}
	}
}

// invalidateCached drops a version's stripes from every datacenter's
// cache.
func (e *Engine) invalidateCached(meta ObjectMeta) {
	e.b.caches.InvalidateAll(stripeCacheID(objectName(meta.Container, meta.Key), meta.UUID))
}

// decisionWindow returns the object's current decision period D_obj.
func (e *Engine) decisionWindow(obj string, now int64) int {
	e.b.mu.Lock()
	defer e.b.mu.Unlock()
	if dc, ok := e.b.decisions[obj]; ok {
		return dc.D()
	}
	return e.b.cfg.DecisionPeriod
}
