package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/erasure"
	"scalia/internal/obs"
	"scalia/internal/stats"
)

// This file is the streaming read path: a stripe-pipelined, chunk-
// parallel object reader over the stripe-granular cache.
//
// A read of stripe s goes through three layers:
//
//  1. the stripe cache — a hit costs no provider traffic at all;
//  2. a bounded worker pool that fetches the stripe's m cheapest
//     chunks concurrently (first m successes win), falling back along
//     the ranked provider order when a fetch fails mid-read;
//  3. erasure decode and a SHA-256 check against the stripe's stored
//     digest, after which the stripe is written back to the cache
//     (user-facing reads only).
//
// Independently, the stream is pipelined: while stripe s drains to the
// client, a prefetcher works ahead on stripes s+1..s+k
// (k = Config.PrefetchStripes), fetching and decoding them
// concurrently and handing them to the consumer in order, so provider
// latency and decode cost overlap with client consumption. Cancelling
// the request context tears down the prefetcher and every in-flight
// chunk fetch.

// objectReader streams the stripes [start, end] of a stored object.
type objectReader struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc
	meta   ObjectMeta
	obj    string
	// cacheID is the stripe-cache identity of this object VERSION:
	// objectName plus the version UUID. Versioned keys make the cache
	// immune to the invalidate-then-fill race — a slow reader of the
	// old version fills old-version keys, which a reader of the new
	// version can never hit. Superseded entries are invalidated
	// eagerly where the previous version is known and age out of the
	// LRU otherwise.
	cacheID string
	// order ranks chunk indexes by marginal read cost at their
	// provider, cheapest first; computed once at open. rankErr defers
	// an insufficient-providers error until a stripe actually needs a
	// provider fetch, so fully cached objects stay readable through an
	// outage.
	order   []int
	rankErr error
	coder   *erasure.Coder
	// userRead marks a client-facing stream: it fills the stripe cache
	// and logs the read event on completion. Internal streams
	// (migration, repair) do neither.
	userRead bool

	start, end int // inclusive stripe range

	pipe chan stripeOut // prefetch pipeline; nil = unpipelined
	next int            // next stripe to load (unpipelined mode)

	cur     []byte // decoded, unconsumed bytes of the current stripe
	curSlot bool   // cur holds a stripe slot of the broker read budget
	fetched int64  // payload bytes delivered so far
	logged  bool   // read event emitted
	err     error  // sticky terminal state (io.EOF after full drain)
}

// stripeOut is one produced stripe (or the error that ended the
// pipeline). slot marks a stripe holding one slot of the broker-wide
// read-buffer budget; whoever drops the stripe must release it.
type stripeOut struct {
	data []byte
	slot bool
	err  error
}

// openObjectReader builds the full-object stripe stream; see
// openObjectRange.
func (e *Engine) openObjectReader(ctx context.Context, meta ObjectMeta, userRead bool) (*objectReader, error) {
	return e.openObjectRange(ctx, meta, 0, meta.StripeCount()-1, userRead)
}

// openObjectRange builds the stripe stream for stripes [start, end] and
// eagerly produces the first stripe, so placement and availability
// errors surface at open rather than mid-stream. userRead selects
// client-read semantics: stripe-cache fill and a read statistics event
// when the stream completes.
func (e *Engine) openObjectRange(ctx context.Context, meta ObjectMeta, start, end int, userRead bool) (*objectReader, error) {
	n := len(meta.Chunks)
	// The coder is resolved through the package-level cache: it depends
	// only on (m, n), and rebuilding (and Gauss-inverting) the
	// generator matrix per stream would put a matrix inversion on the
	// hot read path.
	coder, err := erasure.Cached(meta.M, n)
	if err != nil {
		return nil, err
	}
	order, rankErr := e.rankChunks(meta, nil)
	ctx, cancel := context.WithCancel(ctx)
	or := &objectReader{
		e: e, ctx: ctx, cancel: cancel, meta: meta,
		obj:     objectName(meta.Container, meta.Key),
		cacheID: stripeCacheID(objectName(meta.Container, meta.Key), meta.UUID),
		order:   order, rankErr: rankErr, coder: coder,
		userRead: userRead, start: start, end: end,
		next: start + 1,
	}
	first, slot, err := or.produceStripe(start, false)
	if err != nil {
		cancel()
		return nil, err
	}
	or.cur = first
	or.curSlot = slot
	or.fetched = int64(len(first))
	if prefetch := e.b.cfg.PrefetchStripes; prefetch > 0 && end > start {
		or.pipe = make(chan stripeOut, prefetch)
		go or.prefetch(start + 1)
	}
	return or, nil
}

// rankChunks orders a version's chunk indexes by marginal read cost at
// their provider, cheapest first — the paper's "chunks are read from
// the m cheapest providers" (§III-B). Slots in skip (nil = none) and
// unreachable providers are excluded; when fewer than m remain, the
// ranking plus an ErrNotEnoughChunks are both returned so the caller
// can still serve cached stripes. The repair path shares this ranking,
// skipping the slots it is replacing.
func (e *Engine) rankChunks(meta ObjectMeta, skip map[int]bool) ([]int, error) {
	type ranked struct {
		idx  int
		cost float64
	}
	n := len(meta.Chunks)
	chunkGB := cloud.GB((meta.Size + int64(meta.M) - 1) / int64(meta.M))
	order := make([]ranked, 0, n)
	for i, name := range meta.Chunks {
		if skip[i] {
			continue
		}
		store, ok := e.b.registry.Store(name)
		if !ok || !store.Available() {
			continue
		}
		pr := store.Spec().Pricing
		order = append(order, ranked{idx: i, cost: chunkGB*pr.BandwidthOutGB + pr.OpsPer1000/1000})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].cost != order[j].cost {
			return order[i].cost < order[j].cost
		}
		return order[i].idx < order[j].idx
	})
	idxs := make([]int, len(order))
	for i, r := range order {
		idxs[i] = r.idx
	}
	if len(order) < meta.M {
		return idxs, fmt.Errorf("%w: %d of %d providers reachable, need %d",
			ErrNotEnoughChunks, len(order), n, meta.M)
	}
	return idxs, nil
}

// prefetch is the pipeline producer: it dispatches up to cap(pipe)
// concurrent stripe loads for stripes [from, end] and hands them to
// the consuming Read in stripe order. Fetch latency and decode cost of
// neighbouring stripes overlap; delivery order never changes. It exits
// — without blocking — when the stream context is cancelled or a
// stripe fails.
func (or *objectReader) prefetch(from int) {
	depth := cap(or.pipe)
	type pending struct {
		s  int
		ch chan stripeOut
	}
	sem := make(chan struct{}, depth)    // bounds in-flight stripe loads
	queue := make(chan pending, depth+1) // preserves stripe order
	defer func() {
		// Early teardown leaves produced-but-undelivered stripes in the
		// queue; hand their read-budget slots back before closing the
		// pipe (the dispatcher exits on ctx.Done and closes the queue,
		// and every queued entry has a producer that will deliver).
		for p := range queue {
			out := <-p.ch
			if out.slot {
				or.e.b.releaseReadBuf()
			}
		}
		close(or.pipe)
	}()
	go func() { // dispatcher
		defer close(queue)
		for s := from; s <= or.end; s++ {
			select {
			case sem <- struct{}{}:
			case <-or.ctx.Done():
				return
			}
			// Acquire the read-budget slot here, in stripe order, before
			// the producer launches. Producers acquiring on their own can
			// deadlock the budget: out-of-order completions would hold
			// every slot while the earlier stripes they are queued behind
			// wait for one. Dispatcher-ordered acquisition means a held
			// slot always drains without needing another acquire first.
			if err := or.e.b.acquireReadBuf(or.ctx); err != nil {
				<-sem
				return
			}
			p := pending{s: s, ch: make(chan stripeOut, 1)}
			select {
			case queue <- p:
			case <-or.ctx.Done():
				or.e.b.releaseReadBuf()
				<-sem
				return
			}
			go func(p pending) {
				defer func() { <-sem }()
				data, slot, err := or.produceStripe(p.s, true)
				p.ch <- stripeOut{data: data, slot: slot, err: err}
			}(p)
		}
	}()
	for p := range queue {
		out := <-p.ch
		select {
		case or.pipe <- out:
		case <-or.ctx.Done():
			if out.slot {
				or.e.b.releaseReadBuf()
			}
			return
		}
		if out.err != nil {
			// Unblock the dispatcher and in-flight loads; the consumer
			// already holds the error.
			or.cancel()
			return
		}
		or.e.b.metrics.readPrefetched.Inc()
	}
}

// produceStripe yields one decoded stripe: stripe cache first, then the
// parallel chunk fan-out. Only fully decoded, verified stripes are
// ever written back to the cache, so a read torn down mid-fetch or
// served rotted chunks cannot poison it. Safe for concurrent use
// across different stripes — the pipeline overlaps neighbouring stripe
// loads; the unpipelined path (the eager open fetch, sequential-mode
// Reads) calls it in stripe order.
//
// slotHeld says the caller (the pipeline dispatcher) already reserved a
// read-budget slot for this stripe; otherwise one is acquired here
// before the provider fetch. A cache hit or failure hands the slot
// back; on success the returned slot=true travels with the data, to be
// released once the bytes drain.
func (or *objectReader) produceStripe(s int, slotHeld bool) (data []byte, slot bool, err error) {
	e := or.e
	release := func() {
		if slotHeld {
			slotHeld = false
			e.b.releaseReadBuf()
		}
	}
	if err := or.ctx.Err(); err != nil {
		release()
		return nil, false, err
	}
	// A stripe without a stored digest can never be verified: refuse
	// it before a byte is fetched, served or cached.
	if or.meta.stripeSum(s) == "" {
		release()
		return nil, false, fmt.Errorf("%w: stripe %d has no stored digest", ErrChecksum, s)
	}
	data, cached := e.b.caches.GetStripe(e.dc, or.cacheID, s)
	if cached {
		// Cache hits do not consume the budget: their memory is the
		// cache's, capped by its own capacity.
		release()
		e.b.metrics.readCached.Inc()
		obs.TraceFrom(or.ctx).Count("stripes_cached", 1)
		return data, false, nil
	}
	if or.rankErr != nil {
		release()
		return nil, false, or.rankErr
	}
	if !slotHeld {
		if err := e.b.acquireReadBuf(or.ctx); err != nil {
			return nil, false, err
		}
		slotHeld = true
	}
	data, err = or.fetchStripe(s)
	if err != nil {
		release()
		return nil, false, err
	}
	// Verify the decoded stripe BEFORE it is served or can enter the
	// cache: a provider serving rotted chunk bytes must fail the read,
	// not poison the stripe cache.
	if err := or.meta.verifyStripe(s, data); err != nil {
		release()
		return nil, false, err
	}
	e.b.metrics.readFetched.Inc()
	obs.TraceFrom(or.ctx).Count("stripes_fetched", 1)
	if or.userRead {
		e.b.caches.PutStripe(e.dc, or.cacheID, s, data)
	}
	return data, true, nil
}

// stripeCacheID builds the stripe-cache identity of one object version.
func stripeCacheID(obj, uuid string) string { return obj + "\x00" + uuid }

// fetchStripe retrieves one stripe's chunks from the providers and
// decodes it, over the shared ranked fan-out pool. Both halves are
// timed as serving-path stages ("fetch", "decode").
func (or *objectReader) fetchStripe(s int) ([]byte, error) {
	tr := obs.TraceFrom(or.ctx)
	t0 := time.Now()
	chunks, err := or.e.fetchRanked(or.ctx, or.meta, s, or.order, true)
	if err != nil {
		return nil, err
	}
	or.e.b.observeStage(tr, "fetch", t0)
	t1 := time.Now()
	data, err := or.coder.Decode(chunks, int(or.meta.stripeLen(s)))
	if err == nil {
		or.e.b.observeStage(tr, "decode", t1)
	}
	return data, err
}

// fetchRanked retrieves m of one stripe's chunks along the ranked
// candidate order. Fetches fan out over a bounded worker pool: the
// first m successes win, and a failed fetch falls back to the next
// (spare) candidate in the order (§III-D3: reads proceed without the
// faulty provider). countFallbacks feeds the serving-path fallback
// counter; internal readers (repair) pass false. The returned slice
// has length n with nil at every slot not fetched (the erasure coder
// reconstructs those).
func (e *Engine) fetchRanked(ctx context.Context, meta ObjectMeta, s int, order []int, countFallbacks bool) ([][]byte, error) {
	m := meta.M
	workers := e.b.cfg.ReadParallelism
	if workers > m {
		workers = m
	}
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}

	tr := obs.TraceFrom(ctx)
	fallback := func() {
		if countFallbacks {
			e.b.metrics.readFallbacks.Inc()
			tr.Count("fallbacks", 1)
		}
	}
	chunks := make([][]byte, len(meta.Chunks))
	var (
		mu   sync.Mutex
		got  int
		next int // next candidate position in order
	)
	fetchNext := func() bool {
		mu.Lock()
		if got >= m || next >= len(order) {
			mu.Unlock()
			return false
		}
		idx := order[next]
		next++
		mu.Unlock()
		if ctx.Err() != nil {
			return false
		}
		store, ok := e.b.registry.Store(meta.Chunks[idx])
		if !ok {
			fallback()
			return true // provider vanished; fall back to the next candidate
		}
		t0 := time.Now()
		data, err := store.Get(ctx, meta.chunkKey(s, idx))
		if ctx.Err() == nil {
			// Cancellation is stream teardown (a range read that got its
			// bytes), not a provider failure — keep it out of the series.
			e.b.observeProviderOp(meta.Chunks[idx], "get", t0, err)
		}
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			fallback()
			return true
		}
		mu.Lock()
		chunks[idx] = data
		got++
		mu.Unlock()
		return true
	}

	if workers <= 1 {
		for fetchNext() {
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for fetchNext() {
				}
			}()
		}
		wg.Wait()
	}

	if got < m {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: fetched %d, need %d", ErrNotEnoughChunks, got, m)
	}
	return chunks, nil
}

// Read implements io.Reader.
func (or *objectReader) Read(p []byte) (int, error) {
	for len(or.cur) == 0 {
		or.releaseCur()
		if or.err != nil {
			return 0, or.err
		}
		if or.pipe != nil {
			out, ok := <-or.pipe
			if !ok {
				// The pipeline closed: either the stream fully drained or
				// the context tore it down mid-flight.
				if err := or.ctx.Err(); err != nil {
					or.err = err
					return 0, err
				}
				or.finish()
				return 0, io.EOF
			}
			if out.err != nil {
				or.err = out.err
				return 0, out.err
			}
			or.cur = out.data
			or.curSlot = out.slot
		} else {
			if or.next > or.end {
				or.finish()
				return 0, io.EOF
			}
			data, slot, err := or.produceStripe(or.next, false)
			if err != nil {
				or.err = err
				return 0, err
			}
			or.next++
			or.cur = data
			or.curSlot = slot
		}
		or.fetched += int64(len(or.cur))
	}
	n := copy(p, or.cur)
	or.cur = or.cur[n:]
	if len(or.cur) == 0 {
		or.releaseCur()
	}
	return n, nil
}

// releaseCur returns the current stripe's read-budget slot once its
// bytes are gone (fully drained to the caller, or dropped at teardown).
func (or *objectReader) releaseCur() {
	if or.curSlot {
		or.curSlot = false
		or.e.b.releaseReadBuf()
	}
}

// finish marks the stream fully drained: sticky EOF, read event, and
// context release.
func (or *objectReader) finish() {
	or.err = io.EOF
	or.logRead()
	or.cancel()
}

// Close implements io.Closer; further Reads fail. Closing cancels the
// prefetcher and every in-flight chunk fetch. A stream closed before
// draining logs the bytes actually delivered, not the full size.
func (or *objectReader) Close() error {
	or.cancel()
	if or.err == nil {
		or.err = errors.New("engine: object stream closed")
	}
	or.cur = nil
	or.releaseCur()
	// Stripes already delivered into the pipe hold read-budget slots;
	// drain them so a torn-down stream cannot strand the budget. The
	// prefetcher exits promptly on the cancelled context and closes the
	// pipe, so this terminates.
	if or.pipe != nil {
		for out := range or.pipe {
			if out.slot {
				or.e.b.releaseReadBuf()
			}
		}
		or.pipe = nil
	}
	or.logRead()
	return nil
}

// logRead emits the read statistics event exactly once per user-facing
// stream, with the payload bytes that were actually delivered — an
// aborted download must not inflate the access statistics that drive
// placement.
func (or *objectReader) logRead() {
	if !or.userRead || or.logged {
		return
	}
	or.logged = true
	e, meta := or.e, or.meta
	e.agent.Log(stats.Event{
		Object: or.obj, Class: meta.Class,
		Kind: stats.EventRead, Bytes: or.fetched, StorageBytes: meta.Size,
		Period: e.b.clock.Period(),
	})
}

// rangeReader caps an objectReader at the requested byte length and
// tears the stream down as soon as the range is fully served, so the
// prefetcher does not keep fetching stripes nobody will read.
type rangeReader struct {
	or        *objectReader
	remaining int64
}

func (r *rangeReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	n, err := r.or.Read(p)
	r.remaining -= int64(n)
	if r.remaining == 0 {
		// The undelivered tail of the last stripe must not count toward
		// the read statistics; Close below emits the event.
		r.or.fetched -= int64(len(r.or.cur))
		r.or.cur = nil
		r.or.Close() //nolint:errcheck
		if err == nil || errors.Is(err, io.EOF) {
			err = nil
		}
	}
	return n, err
}

func (r *rangeReader) Close() error { return r.or.Close() }
