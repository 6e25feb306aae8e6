package engine

import (
	"context"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/erasure"
	"scalia/internal/obs"
)

// This file is the streaming write path: a stripe-pipelined, chunk-
// parallel object writer — readpath.go's mirror image.
//
// A write of stripe s goes through three layers:
//
//  1. the producer reads the stripe payload off the body, computes the
//     stripe's SHA-256 and erasure-codes it into n chunks (scratch drawn
//     from the erasure pool) while a helper goroutine folds the same
//     bytes into the object MD5 (the S3 ETag);
//  2. a bounded set of fan-out workers writes the n chunks of up to
//     Config.WritePipelineDepth stripes to their providers
//     concurrently, so provider round-trips of neighbouring stripes
//     overlap with each other and with encoding;
//  3. after the last stripe lands, the caller commits the object's
//     metadata once under the row lock — one commit per object, not
//     per stripe.
//
// Every in-flight stripe holds one slot of the broker-wide
// MaxBufferBytes budget shared with the read path; the producer
// acquires slots in stripe order before reading, and a stripe's worker
// releases its slot when the fan-out finishes, so writes cannot
// deadlock the budget (a held slot always drains without needing
// another acquire first) and broker memory stays bounded under any mix
// of concurrent GETs and PUTs.
//
// On any failure — a provider error, a short body, ctx cancellation —
// the pipeline drains and every chunk already written is rolled back.

// stripeWritePlan describes one streaming write: the coder and resolved
// provider backends shared by every stripe, plus the stripe geometry
// and key layout. PutReader and multipart UploadPart build different
// plans over the same pipeline.
type stripeWritePlan struct {
	coder  *erasure.Coder
	stores []cloud.Backend
	names  []string // provider name per chunk index, for metrics and errors
	// stripes is how many stripes the body holds; stripeLen gives each
	// stripe's payload length and key its chunk keys.
	stripes   int
	stripeLen func(s int) int64
	key       func(s, i int) string
	// skipObjectSum skips the whole-body MD5: migration rewrites a
	// version whose Checksum (ETag) it keeps, and checks the copy
	// against the per-stripe digests instead.
	skipObjectSum bool
}

// resolvePlacement materializes a placement's provider backends and an
// (m, n) coder for it.
func (e *Engine) resolvePlacement(p core.Placement) (*erasure.Coder, []cloud.Backend, []string, error) {
	coder, err := erasure.Cached(p.M, p.N())
	if err != nil {
		return nil, nil, nil, err
	}
	stores := make([]cloud.Backend, p.N())
	names := make([]string, p.N())
	for i, spec := range p.Providers {
		store, ok := e.b.registry.Store(spec.Name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("engine: provider %s vanished", spec.Name)
		}
		stores[i] = store
		names[i] = spec.Name
	}
	return coder, stores, names, nil
}

// writeChunksStream reads the body stripe by stripe, erasure-codes each
// stripe with (m, n) from the placement, and streams the chunks to the
// providers through the write pipeline. The per-stripe digests — and,
// unless skipObjectSum, the body MD5 as the object's Checksum — are
// computed as the body streams through and stored into meta. On any
// failure — including ctx cancellation mid-fan-out — every chunk
// already written is rolled back.
func (e *Engine) writeChunksStream(ctx context.Context, meta *ObjectMeta, p core.Placement, r io.Reader, skipObjectSum bool) error {
	coder, stores, names, err := e.resolvePlacement(p)
	if err != nil {
		return err
	}
	meta.Chunks = names
	sum, stripeSums, err := e.writeStripes(ctx, stripeWritePlan{
		coder: coder, stores: stores, names: names,
		stripes: meta.StripeCount(), stripeLen: meta.stripeLen, key: meta.chunkKey,
		skipObjectSum: skipObjectSum,
	}, r)
	if err != nil {
		return err
	}
	if !skipObjectSum {
		meta.Checksum = sum
	}
	meta.StripeSums = stripeSums
	return nil
}

// stripeJob is one encoded stripe travelling from the producer to a
// fan-out worker. The chunks are pool-owned; whoever drops the job
// must release them (and the stripe's budget slot).
type stripeJob struct {
	s      int
	chunks [][]byte
}

// writeStripes streams r through the write pipeline under plan,
// returning the payload's MD5 ("" under plan.skipObjectSum) and the
// per-stripe SHA-256 digests. All chunks already written are rolled
// back on error, so the providers never keep a partial write.
func (e *Engine) writeStripes(ctx context.Context, plan stripeWritePlan, r io.Reader) (string, []string, error) {
	if depth := e.b.cfg.WritePipelineDepth; depth > 0 && plan.stripes > 1 {
		return e.writeStripesPipelined(ctx, plan, r, depth)
	}
	return e.writeStripesSequential(ctx, plan, r)
}

// writeStripesSequential is the unpipelined write loop: encode stripe
// s, fan it out, wait, then touch stripe s+1. Single-stripe bodies and
// WritePipelineDepth <= 0 use it.
func (e *Engine) writeStripesSequential(ctx context.Context, plan stripeWritePlan, r io.Reader) (string, []string, error) {
	tr := obs.TraceFrom(ctx)
	objSum := md5.New()
	sums := make([]string, plan.stripes)
	var payload []byte
	for s := 0; s < plan.stripes; s++ {
		if err := ctx.Err(); err != nil {
			e.rollbackPlan(plan, s)
			return "", nil, err
		}
		if err := e.b.acquireWriteBuf(ctx); err != nil {
			e.rollbackPlan(plan, s)
			return "", nil, err
		}
		chunks, err := e.produceWriteStripe(tr, plan, s, r, &payload, objSum, sums)
		if err != nil {
			e.b.releaseWriteBuf()
			e.rollbackPlan(plan, s)
			return "", nil, err
		}
		fanoutStart := time.Now()
		err = e.fanOutStripe(ctx, plan, s, chunks)
		erasure.ReleaseChunks(chunks)
		e.b.releaseWriteBuf()
		if err != nil {
			e.rollbackPlan(plan, s+1)
			return "", nil, err
		}
		e.b.observeStage(tr, "fanout", fanoutStart)
	}
	e.b.metrics.writeStripes.Add(int64(plan.stripes))
	return objectSumHex(plan, objSum), sums, nil
}

// writeStripesPipelined overlaps reading/encoding of stripe s+1..s+depth
// with the provider fan-out of stripe s: the producer (this goroutine)
// reads, hashes and encodes in stripe order; depth workers fan encoded
// stripes out concurrently. The body is still consumed strictly in
// order, so r needs no seeking.
func (e *Engine) writeStripesPipelined(ctx context.Context, plan stripeWritePlan, r io.Reader, depth int) (string, []string, error) {
	tr := obs.TraceFrom(ctx)
	objSum := md5.New()
	sums := make([]string, plan.stripes)

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		workErr  error
		jobs     = make(chan stripeJob)
		fail     = func(err error) { errOnce.Do(func() { workErr = err; cancel() }) }
		nworkers = depth
	)
	if nworkers > plan.stripes {
		nworkers = plan.stripes
	}
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				fanoutStart := time.Now()
				err := e.fanOutStripe(pctx, plan, job.s, job.chunks)
				erasure.ReleaseChunks(job.chunks)
				e.b.releaseWriteBuf()
				if err != nil {
					fail(err)
					continue
				}
				e.b.observeStage(tr, "fanout", fanoutStart)
			}
		}()
	}

	// The producer: read, hash, encode, dispatch — in stripe order. The
	// budget slot acquired here travels with the stripe and is released
	// by the worker that fans it out.
	dispatched := 0
	var payload []byte
	prodErr := func() error {
		for s := 0; s < plan.stripes; s++ {
			if err := e.b.acquireWriteBuf(pctx); err != nil {
				return err
			}
			chunks, err := e.produceWriteStripe(tr, plan, s, r, &payload, objSum, sums)
			if err != nil {
				e.b.releaseWriteBuf()
				return err
			}
			select {
			case jobs <- stripeJob{s: s, chunks: chunks}:
				dispatched++
			case <-pctx.Done():
				erasure.ReleaseChunks(chunks)
				e.b.releaseWriteBuf()
				return pctx.Err()
			}
		}
		return nil
	}()
	close(jobs)
	wg.Wait()

	err := workErr
	if err == nil {
		err = prodErr
	}
	if err != nil {
		// Workers are done and every dispatched fan-out has returned;
		// stripes [0, dispatched) are the only ones that could have
		// touched a provider.
		e.rollbackPlan(plan, dispatched)
		return "", nil, err
	}
	e.b.metrics.writeStripes.Add(int64(plan.stripes))
	return objectSumHex(plan, objSum), sums, nil
}

// objectSumHex renders the body MD5 writeStripes returns.
func objectSumHex(plan stripeWritePlan, objSum hash.Hash) string {
	if plan.skipObjectSum {
		return ""
	}
	return hex.EncodeToString(objSum.Sum(nil))
}

// produceWriteStripe reads stripe s's payload from r (into *payload,
// grown as needed and reused across stripes), records its SHA-256 in
// sums[s], and erasure-codes it with pooled scratch. Unless
// plan.skipObjectSum, the payload is folded into objSum on a helper
// goroutine that overlaps the digest and the encode; it reads buf
// only, as they do, and is waited for before any return, so the
// caller may reuse *payload as soon as this returns. The returned
// chunks must be handed back via erasure.ReleaseChunks once their
// fan-out completes.
func (e *Engine) produceWriteStripe(tr *obs.Trace, plan stripeWritePlan, s int, r io.Reader, payload *[]byte, objSum io.Writer, sums []string) ([][]byte, error) {
	plen := plan.stripeLen(s)
	buf := *payload
	if int64(cap(buf)) < plen {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	*payload = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		// A short body is the caller's mistake; any other read error
		// (source-provider failure during migrate, client disconnect)
		// keeps its own identity for status mapping.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: body ended before the declared size", ErrInvalidArgument)
		}
		return nil, fmt.Errorf("engine: object body read: %w", err)
	}
	if !plan.skipObjectSum {
		done := make(chan struct{})
		go func() {
			objSum.Write(buf) //nolint:errcheck
			close(done)
		}()
		defer func() { <-done }()
	}
	stripeSum := sha256.Sum256(buf)
	sums[s] = hex.EncodeToString(stripeSum[:])
	encodeStart := time.Now()
	chunks, err := plan.coder.EncodePooled(buf)
	if err != nil {
		return nil, err
	}
	e.b.observeStage(tr, "encode", encodeStart)
	return chunks, nil
}

// fanOutStripe writes one stripe's n chunks to their providers
// concurrently. The first error (a provider failure or ctx
// cancellation) is returned; the remaining writes run to completion so
// rollback sees a consistent picture.
func (e *Engine) fanOutStripe(ctx context.Context, plan stripeWritePlan, s int, chunks [][]byte) error {
	var wg sync.WaitGroup
	errs := make([]error, len(plan.stores))
	for i := range plan.stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			err := plan.stores[i].Put(ctx, plan.key(s, i), chunks[i])
			e.b.observeProviderOp(plan.names[i], "put", t0, err)
			if err != nil {
				errs[i] = fmt.Errorf("engine: chunk write to %s: %w", plan.names[i], err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rollbackPlan best-effort deletes the chunks of the plan's stripes
// [0, upto). Cleanup runs detached from the request context: a
// cancelled request must still release the chunks it managed to write.
func (e *Engine) rollbackPlan(plan stripeWritePlan, upto int) {
	for s := 0; s < upto; s++ {
		for i, name := range plan.names {
			e.deleteChunkAt(name, plan.key(s, i))
		}
	}
}
