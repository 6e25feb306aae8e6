package main

import (
	"container/heap"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"scalia/internal/cloud"
	"scalia/internal/workload"
)

// opKind is the class of one generated operation.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
)

func (k opKind) String() string {
	return [...]string{"put", "get", "delete"}[k]
}

// op is one operation of a workload's stream. Version is the version a
// PUT writes, a GET must read back, or a DELETE removes; the payload of
// (Key, Version) is a pure function of the seed.
type op struct {
	Kind    opKind
	Key     int
	Version int
}

// eventKind names a chaos event fired at a barrier.
type eventKind string

const (
	evOutage  eventKind = "outage"
	evRepair  eventKind = "repair"
	evRecover eventKind = "recover"
	evPrice   eventKind = "price"
)

// event fires once every op before index At has completed and before
// any op from At on has started.
type event struct {
	At   int
	Kind eventKind
}

// params sizes a workload. defaults returns the benchmark's values; the
// tests shrink them.
type params struct {
	Rate             float64 // offered ops/s (open loop)
	Warmup           float64 // seconds of unrecorded ops before the window (open loop)
	Keys             int     // bulk/web-zipf: key set; churn-repair: live set at start
	MinSize, MaxSize int64   // object sizes, log-uniform between the two
	LargeEvery       int     // every LargeEvery-th object (churn-repair) or rank (web-zipf) is LargeSize
	LargeSize        int64
	ZipfS            float64 // web-zipf popularity exponent
	PutShare         float64 // web-zipf: share of overwrite PUTs
	CreateShare      float64 // churn-repair: share of creates among non-delete slots
	MinLife, MaxLife int     // churn-repair: object lifetime, in ops
	RTTs             bool    // model provider round trips
	WarmBytes        int64   // web-zipf: bytes of the hottest ranks read into every datacenter's cache at set-up
	Clients          int     // client workers and connections; 0 = nproc
	Setups           int     // set-ups per run; setup_s is their median
}

// largest is the biggest object the workload writes.
func (p params) largest() int64 { return max(p.MaxSize, p.LargeSize) }

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"bulk", "web-zipf", "churn-repair"}

// defaults returns the benchmark's parameters for a workload.
func defaults(name string) (params, error) {
	switch name {
	case "bulk":
		// 34 × 16 MiB = 544 MiB of keys, more than the two datacenters'
		// 256 MB caches together; every GET follows a fresh PUT anyway.
		// One client: with two CPU-bound clients on two cores, each op's
		// latency depends on whether the other client is PUTting or
		// GETting at the time, a phase that drifts from run to run. The
		// server still spreads one request's erasure work over every core.
		return params{Keys: 34, MinSize: 16 << 20, MaxSize: 16 << 20, Setups: 3, Clients: 1}, nil
	case "web-zipf":
		// 2000 keys of 16 KiB–1 MiB (about 400 MB) overflow one
		// datacenter's 256 MB cache; the Zipf(1.1) hot set fits it. The
		// hottest 128 MB (about 90% of the GETs) are read into both
		// datacenters' caches at set-up, so the window measures a warm
		// cache: a cold one misses on every first touch, which puts the
		// GET median on the edge between hits and misses.
		return params{Rate: 175, Warmup: 3, Keys: 2000, MinSize: 16 << 10, MaxSize: 512 << 10, LargeEvery: 16, LargeSize: 1 << 20,
			ZipfS: 1.1, PutShare: 0.10, RTTs: true, Setups: 3, WarmBytes: 128 << 20}, nil
	case "churn-repair":
		// Mostly 4–64 KiB objects; one in 32 is 1 MiB, so the latency
		// tail is a population of like requests rather than scheduling
		// noise.
		return params{Rate: 120, Warmup: 3, Keys: 250, MinSize: 4 << 10, MaxSize: 64 << 10, LargeEvery: 32, LargeSize: 1 << 20,
			CreateShare: 0.4, MinLife: 200, MaxLife: 1200, RTTs: true, Setups: 9}, nil
	}
	return params{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// chaosTarget is the provider the outage and the price change hit. It
// is fixed, not chosen by load, so every seed stresses the same
// provider: the cheapest one, which every workload's placements use.
const chaosTarget = cloud.NameS3Low

// rtts is the modeled per-provider round trip: fixed, no jitter.
var rtts = map[string]float64{ // milliseconds
	cloud.NameS3High: 2.0, cloud.NameS3Low: 2.5, cloud.NameRackspace: 3.0, cloud.NameAzure: 3.5, cloud.NameGoogle: 4.0,
}

// plan is a workload's generated input: the seeded namespace, the op
// stream and its chaos events. Identical (workload, seed, params,
// seconds) always yield an identical plan.
type plan struct {
	Workload string
	Seed     uint64
	P        params
	Sizes    []int64 // by key
	Seeded   []int   // keys written (version 0) during set-up
	Ops      []op    // open loop only; bulk generates its cycle from Key/Version arithmetic
	Warm     int     // ops before the measured window (open loop)
	Events   []event
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// logUniform draws a size between lo and hi with a log-uniform density.
func (r *rng) logUniform(lo, hi int64) int64 { return logUniformAt(r.float(), lo, hi) }

// logUniformAt is the log-uniform size at quantile u of [lo, hi].
func logUniformAt(u float64, lo, hi int64) int64 {
	if lo >= hi {
		return lo
	}
	return int64(math.Exp(math.Log(float64(lo)) + u*(math.Log(float64(hi))-math.Log(float64(lo)))))
}

// makePlan generates a workload's inputs from its seed.
func makePlan(name string, seed uint64, p params, seconds float64) plan {
	pl := plan{Workload: name, Seed: seed, P: p}
	r := &rng{s: seed ^ 0x5ca1ab1e}
	switch name {
	case "bulk":
		for k := 0; k < p.Keys; k++ {
			pl.Sizes = append(pl.Sizes, p.MaxSize)
			pl.Seeded = append(pl.Seeded, k)
		}
		pl.Events = []event{{0, evOutage}, {0, evRepair}, {0, evRecover}}
	case "web-zipf":
		planWebZipf(&pl, r, seconds)
		pl.Events = []event{{len(pl.Ops), evOutage}, {len(pl.Ops), evRepair}, {len(pl.Ops), evRecover}}
	case "churn-repair":
		planChurn(&pl, r, seconds)
	}
	return pl
}

func planWebZipf(pl *plan, r *rng, seconds float64) {
	p := pl.P
	// Popularity rank -> key, a seeded permutation so the hot set is not
	// correlated with key order. The size of each rank is fixed, so every
	// seed has the same traffic-weighted size mix: every LargeEvery-th
	// rank is LargeSize, the rest follow a golden-ratio sequence over the
	// log-uniform range. The large ranks' cache misses are the GET tail.
	rank := make([]int, p.Keys)
	for i := range rank {
		rank[i] = i
	}
	for i := len(rank) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		rank[i], rank[j] = rank[j], rank[i]
	}
	pl.Sizes = make([]int64, p.Keys)
	for i, k := range rank {
		if p.LargeEvery > 0 && i%p.LargeEvery == p.LargeEvery/2 {
			pl.Sizes[k] = p.LargeSize
			continue
		}
		u := math.Mod(0.5+float64(i)*0.6180339887498949, 1)
		pl.Sizes[k] = logUniformAt(u, p.MinSize, p.MaxSize)
	}
	// Seeded in rank order, so every seed writes the same size sequence.
	pl.Seeded = append(pl.Seeded, rank...)
	cdf := workload.ZipfWeights(p.Keys, p.ZipfS)
	for i := 1; i < len(cdf); i++ {
		cdf[i] += cdf[i-1]
	}
	// Stratified draws: exactly PutShare of the ops are PUTs, and each
	// kind's popularity ranks cover the Zipf quantiles evenly, one random
	// draw per stratum; a seeded shuffle then orders the stream. The mix
	// is the same for every seed, its order and hot keys are not.
	pl.Warm = int(p.Rate * p.Warmup)
	n := pl.Warm + int(p.Rate*seconds)
	nPut := int(math.Round(float64(n) * p.PutShare))
	for i := 0; i < n; i++ {
		kind, j, cnt := opGet, i-nPut, n-nPut
		if i < nPut {
			kind, j, cnt = opPut, i, nPut
		}
		u := (float64(j) + r.float()) / float64(cnt)
		pl.Ops = append(pl.Ops, op{kind, rank[min(sort.SearchFloat64s(cdf, u), p.Keys-1)], 0})
	}
	for i := len(pl.Ops) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		pl.Ops[i], pl.Ops[j] = pl.Ops[j], pl.Ops[i]
	}
	version := make([]int, p.Keys)
	for i := range pl.Ops {
		o := &pl.Ops[i]
		if o.Kind == opPut {
			version[o.Key]++
		}
		o.Version = version[o.Key]
	}
}

// expiry is one live churn object ordered by the op index it dies at.
type expiry struct{ at, key int }

type expiryHeap []expiry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].key < h[j].key)
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(expiry)) }
func (h *expiryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// keySet is a set of keys with uniform random choice.
type keySet struct {
	keys []int
	pos  map[int]int
}

func (s *keySet) add(k int) {
	if s.pos == nil {
		s.pos = map[int]int{}
	}
	s.pos[k] = len(s.keys)
	s.keys = append(s.keys, k)
}

func (s *keySet) remove(k int) bool {
	j, ok := s.pos[k]
	if !ok {
		return false
	}
	last := s.keys[len(s.keys)-1]
	s.keys[j], s.pos[last] = last, j
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
	return true
}

func (s *keySet) pick(r *rng) int { return s.keys[r.next()%uint64(len(s.keys))] }

func planChurn(pl *plan, r *rng, seconds float64) {
	p := pl.P
	// Every LargeEvery-th create writes, and every LargeEvery-th read
	// targets, a LargeSize object; the rest are small. The fixed
	// cadence keeps the large share identical across seeds. Small sizes
	// follow a golden-ratio sequence over the log-uniform range.
	// Creates come at a fixed cadence too, and lifetimes follow a
	// √2-sequence from a seeded offset, so the live set — and with it
	// the number of objects the outage hits, which sets the repair's
	// length — grows and shrinks the same way for every seed.
	var (
		small, large keySet
		dies         expiryHeap
		reads        int
		credit       float64 // creates owed at CreateShare per slot
		lifeOff      = r.float()
	)
	lifeAt := func(k int) float64 { return math.Mod(lifeOff+float64(k)*0.4142135623730951, 1) }
	create := func(now, life int) int {
		k := len(pl.Sizes)
		if p.LargeEvery > 0 && k%p.LargeEvery == 0 {
			pl.Sizes = append(pl.Sizes, p.LargeSize)
			large.add(k)
		} else {
			u := math.Mod(0.5+float64(k)*0.6180339887498949, 1)
			pl.Sizes = append(pl.Sizes, logUniformAt(u, p.MinSize, p.MaxSize))
			small.add(k)
		}
		heap.Push(&dies, expiry{now + life, k})
		return k
	}
	for i := 0; i < p.Keys; i++ {
		pl.Seeded = append(pl.Seeded, create(0, int(lifeAt(len(pl.Sizes))*float64(p.MaxLife))))
	}
	pl.Warm = int(p.Rate * p.Warmup)
	n := pl.Warm + int(p.Rate*seconds)
	for i := 0; i < n; i++ {
		if len(dies) > 0 && dies[0].at <= i {
			e := heap.Pop(&dies).(expiry)
			if !small.remove(e.key) {
				large.remove(e.key)
			}
			pl.Ops = append(pl.Ops, op{opDelete, e.key, 0})
			continue
		}
		set := &small
		if p.LargeEvery > 0 && reads%p.LargeEvery == 0 {
			set = &large
		}
		credit += p.CreateShare
		if len(set.keys) == 0 || credit >= 1 {
			credit = max(credit-1, 0)
			life := p.MinLife + int(lifeAt(len(pl.Sizes))*float64(p.MaxLife-p.MinLife))
			pl.Ops = append(pl.Ops, op{opPut, create(i, life), 0})
			continue
		}
		reads++
		pl.Ops = append(pl.Ops, op{opGet, set.pick(r), 0})
	}
	at := func(f float64) int { return pl.Warm + int(f*float64(n-pl.Warm)) }
	pl.Events = []event{
		{at(0.25), evOutage}, {at(0.40), evRepair}, {at(0.55), evRecover}, {at(0.70), evPrice},
	}
}

// payloads serves object bodies. The body of (key, version) is a prefix
// of one of a few seeded random buffers, chosen so that consecutive
// versions of a key differ; the MD5 of each distinct body (the ETag the
// gateway must return) is computed once and memoized.
type payloads struct {
	pool [][]byte
	mu   sync.Mutex
	etag map[[2]int64]string // (buffer, size) -> quoted MD5
}

const payloadVariants = 3

func newPayloads(seed uint64, maxSize int64) *payloads {
	pp := &payloads{etag: map[[2]int64]string{}}
	r := &rng{s: seed ^ 0xb0d1e5}
	for v := 0; v < payloadVariants; v++ {
		b := make([]byte, (maxSize+7)&^7)
		for i := 0; i < len(b); i += 8 {
			u := r.next()
			for j := 0; j < 8; j++ {
				b[i+j] = byte(u >> (8 * j))
			}
		}
		pp.pool = append(pp.pool, b[:maxSize])
	}
	return pp
}

func (pp *payloads) variant(key, version int) int { return (key + version) % payloadVariants }

// body returns the payload of (key, version) at the given size.
func (pp *payloads) body(key, version int, size int64) []byte {
	return pp.pool[pp.variant(key, version)][:size]
}

// etagOf returns the ETag the gateway must report for (key, version).
func (pp *payloads) etagOf(key, version int, size int64) string {
	id := [2]int64{int64(pp.variant(key, version)), size}
	pp.mu.Lock()
	e, ok := pp.etag[id]
	pp.mu.Unlock()
	if ok {
		return e
	}
	sum := md5.Sum(pp.body(key, version, size))
	e = `"` + hex.EncodeToString(sum[:]) + `"`
	pp.mu.Lock()
	pp.etag[id] = e
	pp.mu.Unlock()
	return e
}

// keyName is the object key of key index k.
func keyName(k int) string { return fmt.Sprintf("k%06d", k) }
