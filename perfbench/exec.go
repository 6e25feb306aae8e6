package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"scalia"
	"scalia/client"
)

const container = "bench"

// errMismatch marks a wrong answer: a body, size or ETag that differs
// from what the benchmark wrote. Any mismatch fails the run.
var errMismatch = errors.New("output mismatch")

// failureCode names an op failure by its typed error.
func failureCode(err error) string {
	for _, c := range []struct {
		err  error
		code string
	}{
		{scalia.ErrObjectNotFound, "not_found"},
		{scalia.ErrPreconditionFailed, "precondition_failed"},
		{scalia.ErrInvalidArgument, "invalid_argument"},
		{scalia.ErrInfeasiblePlacement, "infeasible_placement"},
		{scalia.ErrNotEnoughChunks, "unavailable"},
		{scalia.ErrProviderUnavailable, "provider_unavailable"},
		{scalia.ErrObjectTooLarge, "too_large"},
		{scalia.ErrProviderOverCapacity, "over_capacity"},
		{client.ErrRemote, "remote"},
		{io.ErrUnexpectedEOF, "truncated"},
		{context.DeadlineExceeded, "timeout"},
	} {
		if errors.Is(err, c.err) {
			return c.code
		}
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return "transport"
	}
	return "other"
}

// tally accumulates one run's op outcomes. Latencies are raw samples in
// milliseconds, measured from each op's due time.
type tally struct {
	mu        sync.Mutex
	lat       [3][]float64 // by opKind
	svcNs     [3]int64     // time from send to completion, by opKind
	bytes     [3]int64     // user bytes moved, by opKind
	lag       []float64    // send time minus due time, ms
	attempted int
	failures  map[string]int
	mismatch  error
	liveSet   map[int]struct{} // keys that should exist
}

func newTally() *tally { return &tally{failures: map[string]int{}, liveSet: map[int]struct{}{}} }

// live marks key k as existing or deleted.
func (t *tally) live(k int, exists bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if exists {
		t.liveSet[k] = struct{}{}
	} else {
		delete(t.liveSet, k)
	}
}

func (t *tally) liveSnapshot() map[int]struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]struct{}, len(t.liveSet))
	for k := range t.liveSet {
		out[k] = struct{}{}
	}
	return out
}

// record counts one op. Warm-up ops (measured false) only update the
// live set and surface wrong answers and failures.
func (t *tally) record(o op, due, sent, done time.Time, n int64, err error, measured bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil && o.Kind != opGet {
		if o.Kind == opPut {
			t.liveSet[o.Key] = struct{}{}
		} else {
			delete(t.liveSet, o.Key)
		}
	}
	if !measured && err == nil {
		return
	}
	k := o.Kind
	t.attempted++
	t.lag = append(t.lag, ms(sent.Sub(due)))
	if err != nil {
		if errors.Is(err, errMismatch) {
			if t.mismatch == nil {
				t.mismatch = err
			}
		} else {
			t.failures[failureCode(err)]++
		}
		return
	}
	t.lat[k] = append(t.lat[k], ms(done.Sub(due)))
	t.svcNs[k] += int64(done.Sub(sent))
	t.bytes[k] += n
}

func (t *tally) failed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.failures {
		n += c
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// worker executes ops through the typed client and checks every answer.
type worker struct {
	cl  *client.Client
	pay *payloads
	pl  *plan
	buf []byte
}

func newWorker(d *deployment, pay *payloads, pl *plan) *worker {
	return &worker{cl: d.client, pay: pay, pl: pl, buf: make([]byte, 256<<10)}
}

// do runs one op and returns the user bytes it moved.
func (w *worker) do(ctx context.Context, o op) (int64, error) {
	key := keyName(o.Key)
	size := w.pl.Sizes[o.Key]
	switch o.Kind {
	case opPut:
		meta, err := w.cl.Put(ctx, container, key, w.pay.body(o.Key, o.Version, size))
		if err != nil {
			return 0, fmt.Errorf("put %s: %w", key, err)
		}
		if want := w.pay.etagOf(o.Key, o.Version, size); meta.Size != size || meta.ETag() != want {
			return 0, fmt.Errorf("%w: put %s v%d: size %d etag %s, want %d %s",
				errMismatch, key, o.Version, meta.Size, meta.ETag(), size, want)
		}
		return size, nil
	case opGet:
		return w.get(ctx, key, o, size)
	default:
		if err := w.cl.Delete(ctx, container, key); err != nil {
			return 0, fmt.Errorf("delete %s: %w", key, err)
		}
		return 0, nil
	}
}

// get streams one object and compares every byte with the version the
// benchmark wrote, and its ETag with that version's MD5.
func (w *worker) get(ctx context.Context, key string, o op, size int64) (int64, error) {
	rc, meta, err := w.cl.GetReader(ctx, container, key)
	if err != nil {
		return 0, fmt.Errorf("get %s: %w", key, err)
	}
	defer rc.Close()
	want := w.pay.body(o.Key, o.Version, size)
	if etag := w.pay.etagOf(o.Key, o.Version, size); meta.Size != size || meta.ETag() != etag {
		return 0, fmt.Errorf("%w: get %s v%d: size %d etag %s, want %d %s",
			errMismatch, key, o.Version, meta.Size, meta.ETag(), size, etag)
	}
	var off int64
	for {
		n, err := rc.Read(w.buf)
		if n > 0 {
			if off+int64(n) > size || !bytes.Equal(w.buf[:n], want[off:off+int64(n)]) {
				return 0, fmt.Errorf("%w: get %s v%d: body differs at offset %d", errMismatch, key, o.Version, off)
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("get %s: %w", key, err)
		}
	}
	if off != size {
		return 0, fmt.Errorf("get %s: %w after %d of %d bytes", key, io.ErrUnexpectedEOF, off, size)
	}
	return size, nil
}

// seed writes the plan's set-up namespace at version 0 with nproc
// concurrent clients.
func seedNamespace(ctx context.Context, d *deployment, pay *payloads, pl *plan, clients int) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := newWorker(d, pay, pl)
			for i := c; i < len(pl.Seeded); i += clients {
				if _, err := w.do(ctx, op{opPut, pl.Seeded[i], 0}); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// warmCaches reads the hottest seeded keys, up to pl.P.WarmBytes, into
// every datacenter's stripe cache through one engine of each, one
// datacenter per goroutine. pl.Seeded lists web-zipf's keys hottest
// first.
func warmCaches(ctx context.Context, d *deployment, pl *plan) error {
	if pl.P.WarmBytes <= 0 {
		return nil
	}
	var (
		wg   sync.WaitGroup
		errs = make(chan error, len(d.broker.Engines()))
		seen = map[string]bool{}
	)
	for _, e := range d.broker.Engines() {
		if seen[e.Datacenter()] {
			continue
		}
		seen[e.Datacenter()] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for _, k := range pl.Seeded {
				if n += pl.Sizes[k]; n > pl.P.WarmBytes {
					return
				}
				if _, _, err := e.Get(ctx, container, keyName(k)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// barrierFunc fires the events scheduled at one op index. It runs with
// no op in flight.
type barrierFunc func(ctx context.Context, at int) error

// runOpen drives the plan's op stream as an open loop: op i is due at
// base + i/rate, shifted by the time spent in barriers. clients workers
// take ops in stream order; an op waits for the previous op on the same
// key, so every answer has exactly one correct value. Ops before
// pl.Warm run but are not recorded.
func runOpen(ctx context.Context, d *deployment, pay *payloads, pl *plan, clients int,
	barriers map[int]bool, fire barrierFunc, tl *tally, opID func(int) string) (time.Duration, error) {
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int
		active   int
		inflight = map[int]chan struct{}{}
		base     = time.Now()
		shift    time.Duration
		fired    = map[int]bool{}
		firing   bool // a barrier's events are running, outside mu
		fatal    error
		// The measured window runs from the first measured op's due time
		// to the last completion, minus barrier time inside it.
		warmStart time.Time
		warmShift time.Duration
		lastDone  time.Time
	)
	interval := time.Duration(float64(time.Second) / pl.P.Rate)
	due := func(i int) time.Time { return base.Add(shift + time.Duration(i)*interval) }
	// take hands out the next op, first firing the barrier at its index
	// once the ops before it have drained.
	take := func() (int, time.Time, chan struct{}, chan struct{}, bool) {
		mu.Lock()
		defer mu.Unlock()
		for {
			if fatal != nil || next >= len(pl.Ops) {
				return 0, time.Time{}, nil, nil, false
			}
			if firing {
				cond.Wait()
				continue
			}
			if !barriers[next] || fired[next] {
				break
			}
			if active > 0 {
				cond.Wait()
				continue
			}
			fired[next], firing = true, true
			mu.Unlock()
			err := fire(ctx, next)
			mu.Lock()
			firing = false
			cond.Broadcast()
			if err != nil {
				fatal = err
				return 0, time.Time{}, nil, nil, false
			}
			// The stream resumes on schedule from now: time spent in the
			// barrier is not charged to the ops after it.
			if late := time.Since(due(next)); late > 0 {
				shift += late
			}
			if next == pl.Warm {
				warmStart, warmShift = due(next), shift
			}
		}
		i := next
		next++
		active++
		k := pl.Ops[i].Key
		prev := inflight[k]
		mine := make(chan struct{})
		inflight[k] = mine
		return i, due(i), prev, mine, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker(d, pay, pl)
			for {
				i, at, prev, mine, ok := take()
				if !ok {
					return
				}
				if prev != nil {
					<-prev
				}
				waitUntil(at)
				o := pl.Ops[i]
				sent := time.Now()
				n, err := w.do(withOpID(ctx, opID(i)), o)
				done := time.Now()
				tl.record(o, at, sent, done, n, err, i >= pl.Warm)
				if d.spans != nil {
					d.spans.add(opID(i), "queue", o.Kind.String(), at, sent)
					d.spans.add(opID(i), "client", o.Kind.String(), sent, done)
				}
				close(mine)
				mu.Lock()
				if done.After(lastDone) {
					lastDone = done
				}
				if inflight[o.Key] == mine {
					delete(inflight, o.Key)
				}
				active--
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fatal != nil {
		return 0, fatal
	}
	span := lastDone.Sub(warmStart) - (shift - warmShift)
	// Barriers at the stream's end (post-window events) fire here.
	for at := range barriers {
		if at >= len(pl.Ops) && !fired[at] {
			if err := fire(ctx, at); err != nil {
				return 0, err
			}
		}
	}
	return span, nil
}

// waitUntil sleeps until shortly before t, then yields until t: a
// timer alone wakes up to a millisecond late on a busy machine, and that
// lateness would be charged to the op.
func waitUntil(t time.Time) {
	const spin = 300 * time.Microsecond
	if wait := time.Until(t) - spin; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runClosed drives bulk: each client repeatedly PUTs, then fully GETs,
// its next key, until the deadline. The first cycle of each client is
// warm-up; mark is called once every client has finished it.
func runClosed(ctx context.Context, d *deployment, pay *payloads, pl *plan, clients int,
	seconds float64, mark func() error, tl *tally, opID func(int) string) (time.Duration, error) {
	perClient := pl.P.Keys / clients
	var (
		warm     sync.WaitGroup
		wg       sync.WaitGroup
		start    = make(chan struct{})
		deadline time.Time
	)
	warm.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := newWorker(d, pay, pl)
			for i := 0; ; i++ {
				k := c + clients*(i%perClient)
				v := i/perClient + 1
				for _, kind := range []opKind{opPut, opGet} {
					sent := time.Now()
					o := op{kind, k, v}
					id := opID(2*(i*clients+c) + int(kind))
					n, err := w.do(withOpID(ctx, id), o)
					done := time.Now()
					tl.record(o, sent, sent, done, n, err, i > 0)
					if d.spans != nil {
						d.spans.add(id, "client", kind.String(), sent, done)
					}
				}
				if i == 0 {
					warm.Done()
					<-start
				}
				if i > 0 && !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	warm.Wait()
	err := mark()
	began := time.Now()
	deadline = began.Add(time.Duration(seconds * float64(time.Second)))
	close(start)
	wg.Wait()
	return time.Since(began), err
}
