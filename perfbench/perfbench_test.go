package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"scalia/internal/cloud"
)

// TestPlanDeterministic pins that a (workload, seed) pair always
// generates the identical op stream, namespace and event schedule, and
// that another seed generates another one.
func TestPlanDeterministic(t *testing.T) {
	for _, name := range workloads {
		p, err := defaults(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := makePlan(name, 7, p, 5), makePlan(name, 7, p, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", name)
		}
		c := makePlan(name, 8, p, 5)
		c.Seed = a.Seed
		if name != "bulk" && reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same plan", name)
		}
		for i, ev := range a.Events {
			if ev.At < 0 || ev.At > len(a.Ops) || (i > 0 && ev.At < a.Events[i-1].At) {
				t.Errorf("%s: event %d at op %d is out of order or range", name, i, ev.At)
			}
		}
	}
	const size = 1 << 20
	p1, p2, p3 := newPayloads(7, size), newPayloads(7, size), newPayloads(8, size)
	if !bytes.Equal(p1.body(3, 1, size), p2.body(3, 1, size)) || bytes.Equal(p1.body(3, 1, size), p3.body(3, 1, size)) {
		t.Error("payloads are not a function of the seed")
	}
	if bytes.Equal(p1.body(3, 1, size), p1.body(3, 2, size)) {
		t.Error("consecutive versions of a key have the same body")
	}
}

// TestProviderInterfaces checks that the decorator keeps every optional
// cloud interface the in-memory store offers, so the deployment under
// the benchmark behaves like the undecorated one.
func TestProviderInterfaces(t *testing.T) {
	var b cloud.Backend = &provider{BlobStore: cloud.NewBlobStore(cloud.PaperProviders()[0])}
	if _, ok := b.(cloud.BatchWriter); !ok {
		t.Error("not a BatchWriter")
	}
	if _, ok := b.(cloud.Meterer); !ok {
		t.Error("not a Meterer")
	}
	if _, ok := b.(cloud.AvailabilitySetter); !ok {
		t.Error("not an AvailabilitySetter")
	}
	if _, ok := b.(cloud.PricingSetter); !ok {
		t.Error("not a PricingSetter")
	}
	if _, ok := b.(cloud.ChangeNotifierSetter); !ok {
		t.Error("not a ChangeNotifierSetter")
	}
	if _, ok := b.(cloud.StorageAccruer); !ok {
		t.Error("not a StorageAccruer")
	}
}

// TestTracedMatchesUntraced runs small serial versions of the open-loop
// workloads twice, untraced and traced, and requires the two to agree
// exactly on what the providers saw and billed.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two deployments per workload")
	}
	small := map[string]params{
		"web-zipf": {Rate: 50, Warmup: 0.2, Keys: 40, MinSize: 16 << 10, MaxSize: 64 << 10,
			ZipfS: 1.1, PutShare: 0.1, RTTs: true, WarmBytes: 512 << 10},
		"churn-repair": {Rate: 50, Warmup: 0.2, Keys: 30, MinSize: 4 << 10, MaxSize: 32 << 10, LargeEvery: 8, LargeSize: 256 << 10,
			CreateShare: 0.55, MinLife: 20, MaxLife: 120, RTTs: true},
	}
	for name, p := range small {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 3, seconds: 2, p: p, clients: 1}
			u, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.traced = true
			tr, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !u.correct || !tr.correct || u.failed+tr.failed > 0 {
				t.Fatalf("runs not clean: %v %v", u.notes, tr.notes)
			}
			// Counts must match exactly; the bill is a float sum whose
			// order follows goroutine timing, so it may differ in rounding.
			type counts struct{ Gets, Puts, Batches, Deletes, Stripes int64 }
			pick := func(o *outcome) counts {
				return counts{o.provOps.Gets, o.provOps.Puts, o.provOps.Batches, o.provOps.Deletes, o.stripesWr}
			}
			if a, b := pick(u), pick(tr); a != b {
				t.Errorf("provider counts: untraced %+v, traced %+v", a, b)
			}
			for _, m := range []string{"billed_usd", "space_amp"} {
				a, b := u.e2e[m].Value, tr.e2e[m].Value
				if math.Abs(a-b) > 1e-9*math.Abs(a) {
					t.Errorf("%s: untraced %v, traced %v", m, a, b)
				}
			}
			if len(tr.spans) == 0 || len(tr.layers) == 0 {
				t.Error("traced run recorded no spans or layer metrics")
			}
		})
	}
}
