package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalia/client"
	"scalia/internal/cloud"
	"scalia/internal/engine"
	"scalia/internal/obs"
)

// provider is the benchmark's cloud.Backend decorator. It embeds the
// in-memory *cloud.BlobStore, so every optional cloud interface
// (BatchWriter, Meterer, AvailabilitySetter, PricingSetter,
// ChangeNotifierSetter, StorageAccruer) still resolves, and wraps every
// data operation with the modeled round-trip time, op and byte
// counters, and — in traced runs — one span per call tagged with the
// request that caused it.
type provider struct {
	*cloud.BlobStore
	name string
	rtt  time.Duration
	// modeled gates the RTT: set-up seeding runs without it, the
	// measured window with it.
	modeled atomic.Bool
	spans   *spanLog // nil in untraced runs

	gets, puts, batches, batchItems, deletes, lists atomic.Int64
	bytesIn, bytesOut                               atomic.Int64
	busyNs, failures                                atomic.Int64
}

var (
	_ cloud.Backend              = (*provider)(nil)
	_ cloud.BatchWriter          = (*provider)(nil)
	_ cloud.Meterer              = (*provider)(nil)
	_ cloud.AvailabilitySetter   = (*provider)(nil)
	_ cloud.PricingSetter        = (*provider)(nil)
	_ cloud.ChangeNotifierSetter = (*provider)(nil)
	_ cloud.StorageAccruer       = (*provider)(nil)
)

// call runs one backend operation under the RTT model and records it.
func (p *provider) call(ctx context.Context, op string, fn func() error) error {
	start := time.Now()
	err := p.wait(ctx)
	if err == nil {
		err = fn()
	}
	end := time.Now()
	p.busyNs.Add(int64(end.Sub(start)))
	if err != nil {
		p.failures.Add(1)
	}
	if p.spans != nil {
		parent := "bg" // background repair or reoptimization work
		if tr := obs.TraceFrom(ctx); tr != nil {
			parent = tr.ID
		}
		p.spans.add(parent, "cloud."+op, p.name, start, end)
	}
	return err
}

// wait sleeps the provider's modeled round trip, or returns early when
// ctx is cancelled.
func (p *provider) wait(ctx context.Context) error {
	if p.rtt <= 0 || !p.modeled.Load() {
		return ctx.Err()
	}
	t := time.NewTimer(p.rtt)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *provider) Put(ctx context.Context, key string, data []byte) error {
	p.puts.Add(1)
	return p.call(ctx, "put", func() error {
		err := p.BlobStore.Put(ctx, key, data)
		if err == nil {
			p.bytesIn.Add(int64(len(data)))
		}
		return err
	})
}

func (p *provider) PutBatch(ctx context.Context, items []cloud.BatchItem) error {
	p.batches.Add(1)
	p.batchItems.Add(int64(len(items)))
	return p.call(ctx, "putbatch", func() error {
		err := p.BlobStore.PutBatch(ctx, items)
		if err == nil {
			for _, it := range items {
				p.bytesIn.Add(int64(len(it.Data)))
			}
		}
		return err
	})
}

func (p *provider) Get(ctx context.Context, key string) ([]byte, error) {
	p.gets.Add(1)
	var data []byte
	err := p.call(ctx, "get", func() error {
		var err error
		data, err = p.BlobStore.Get(ctx, key)
		p.bytesOut.Add(int64(len(data)))
		return err
	})
	return data, err
}

func (p *provider) Delete(ctx context.Context, key string) error {
	p.deletes.Add(1)
	return p.call(ctx, "delete", func() error { return p.BlobStore.Delete(ctx, key) })
}

func (p *provider) List(ctx context.Context, prefix string) ([]string, error) {
	p.lists.Add(1)
	var keys []string
	err := p.call(ctx, "list", func() error {
		var err error
		keys, err = p.BlobStore.List(ctx, prefix)
		return err
	})
	return keys, err
}

// providerCounts is a snapshot of the decorators' counters summed over
// every provider.
type providerCounts struct {
	Gets, Puts, Batches, BatchItems, Deletes, Lists int64
	BytesIn, BytesOut                               int64
	BusyNs, Failures                                int64
}

func (c providerCounts) sub(o providerCounts) providerCounts {
	return providerCounts{
		Gets: c.Gets - o.Gets, Puts: c.Puts - o.Puts, Batches: c.Batches - o.Batches,
		BatchItems: c.BatchItems - o.BatchItems, Deletes: c.Deletes - o.Deletes, Lists: c.Lists - o.Lists,
		BytesIn: c.BytesIn - o.BytesIn, BytesOut: c.BytesOut - o.BytesOut,
		BusyNs: c.BusyNs - o.BusyNs, Failures: c.Failures - o.Failures,
	}
}

// deployment is one in-process Scalia deployment served over loopback
// HTTP, with the benchmark's decorators at its public seams.
type deployment struct {
	broker    *engine.Broker
	providers []*provider
	server    *http.Server
	served    chan struct{}
	client    *client.Client
	transport *http.Transport
	spans     *spanLog
}

// deployConfig is what varies between the benchmark's deployments: the
// RTT model, the client's connection cap and tracing.
type deployConfig struct {
	rtt     map[string]time.Duration // per provider; missing = zero
	clients int                      // client connection cap
	traced  bool
}

// boot builds the broker with scalia-server's default configuration —
// 2 datacenters × 2 engines, 256 MB stripe cache per datacenter, 4 MiB
// stripes, 2 reoptimization workers, swap batch 16 — over the paper's
// five providers wrapped in the RTT-model decorator, and serves the v1
// gateway on a loopback port.
func boot(cfg deployConfig) (*deployment, error) {
	d := &deployment{served: make(chan struct{})}
	if cfg.traced {
		d.spans = newSpanLog()
	}
	reg := cloud.NewRegistry()
	for _, spec := range cloud.PaperProviders() {
		p := &provider{BlobStore: cloud.NewBlobStore(spec), name: spec.Name, rtt: cfg.rtt[spec.Name], spans: d.spans}
		d.providers = append(d.providers, p)
		reg.Register(p)
	}
	d.broker = engine.NewBroker(engine.Config{
		EnginesPerDC:    2,
		CacheBytes:      256 << 20,
		PeriodHours:     1,
		StripeBytes:     4 << 20,
		ReadParallelism: engine.DefaultReadParallelism,
		PrefetchStripes: engine.DefaultPrefetchStripes,
		ReoptWorkers:    2,
		SwapBatchSize:   16,
		Registry:        reg,
		Clock:           engine.NewWallClock(1),
	})
	var handler http.Handler = engine.NewGateway(d.broker)
	if cfg.traced {
		handler = gatewaySpans(handler, d.spans)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.broker.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.server = &http.Server{Handler: handler}
	go func() {
		defer close(d.served)
		_ = d.server.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	d.transport = &http.Transport{
		MaxConnsPerHost:     cfg.clients,
		MaxIdleConnsPerHost: cfg.clients,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = d.transport
	if cfg.traced {
		rt = requestIDs{next: d.transport}
	}
	d.client = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt}))
	return d, nil
}

// setModeled switches the providers' RTT model on or off.
func (d *deployment) setModeled(on bool) {
	for _, p := range d.providers {
		p.modeled.Store(on)
	}
}

// counts sums the provider decorators' counters.
func (d *deployment) counts() providerCounts {
	var c providerCounts
	for _, p := range d.providers {
		c.Gets += p.gets.Load()
		c.Puts += p.puts.Load()
		c.Batches += p.batches.Load()
		c.BatchItems += p.batchItems.Load()
		c.Deletes += p.deletes.Load()
		c.Lists += p.lists.Load()
		c.BytesIn += p.bytesIn.Load()
		c.BytesOut += p.bytesOut.Load()
		c.BusyNs += p.busyNs.Load()
		c.Failures += p.failures.Load()
	}
	return c
}

// usedBytes is the providers' total stored volume.
func (d *deployment) usedBytes() int64 {
	var n int64
	for _, p := range d.providers {
		n += p.UsedBytes()
	}
	return n
}

// usage lists each provider's stored bytes.
func (d *deployment) usage() string {
	var b strings.Builder
	for _, p := range d.providers {
		fmt.Fprintf(&b, "%s=%d ", p.name, p.UsedBytes())
	}
	return strings.TrimSpace(b.String())
}

// provider returns the decorator of the named provider.
func (d *deployment) provider(name string) *provider {
	for _, p := range d.providers {
		if p.name == name {
			return p
		}
	}
	panic("perfbench: unknown provider " + name)
}

// close shuts the server down, waits for it, and releases the broker.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.server.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = d.server.Close() // force-close what did not drain
	}
	<-d.served
	d.transport.CloseIdleConnections()
	d.broker.Close()
}

// opIDKey carries the benchmark's request ID in a request context.
type opIDKey struct{}

func withOpID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, opIDKey{}, id)
}

// requestIDs is the traced client's RoundTripper: it replaces the
// client's random X-Request-ID with the benchmark's op ID, so gateway
// and provider spans can be joined to the op that caused them.
type requestIDs struct{ next http.RoundTripper }

func (t requestIDs) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(opIDKey{}).(string)
	if id == "" {
		return t.next.RoundTrip(req)
	}
	r := req.Clone(req.Context())
	r.Header.Set("X-Request-ID", id)
	return t.next.RoundTrip(r)
}

// gatewaySpans is the traced run's middleware around the gateway
// handler: one span per request under its X-Request-ID.
func gatewaySpans(next http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.add(r.Header.Get("X-Request-ID"), "gateway", r.Method, start, time.Now())
	})
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call at a layer boundary. Parent is the request ID
// of the op that caused it ("bg" for background maintenance work, the
// event name for chaos jobs).
type span struct {
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(parent, name, detail string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{parent, name, detail, int64(start.Sub(l.base)), int64(end.Sub(l.base))})
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}
