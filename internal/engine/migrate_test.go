package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/core"
)

// putMultipart completes a 2-part upload of payload (part 1 = the first
// split bytes, a whole number of stripes) and returns its metadata.
func putMultipart(t *testing.T, e *Engine, container, key string, payload []byte, split int) ObjectMeta {
	t.Helper()
	up, err := e.CreateUpload(ctx, container, key, int64(len(payload)), PutOptions{MIME: "application/octet-stream"})
	if err != nil {
		t.Fatal(err)
	}
	var parts []CompletedPart
	for i, body := range [][]byte{payload[:split], payload[split:]} {
		p, err := e.UploadPart(ctx, up.UploadID, i+1, bytes.NewReader(body), int64(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, CompletedPart{PartNumber: p.PartNumber, ETag: p.ETag})
	}
	meta, err := e.CompleteUpload(ctx, up.UploadID, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Multipart() || !strings.HasSuffix(meta.Checksum, "-2") {
		t.Fatalf("completed meta = %+v, want a 2-part multipart version", meta)
	}
	return meta
}

// checkMigrated asserts that the live version of container/key is a new
// version of before — new UUID, same multipart ETag and stripe digests —
// and that a GET returns payload byte for byte.
func checkMigrated(t *testing.T, e *Engine, container, key string, before ObjectMeta, payload []byte) {
	t.Helper()
	got, meta, err := e.Get(ctx, container, key)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after migration: %v (%d bytes)", err, len(got))
	}
	if meta.UUID == before.UUID {
		t.Fatal("object was not migrated")
	}
	if meta.ETag() != before.ETag() || !slices.Equal(meta.StripeSums, before.StripeSums) {
		t.Fatalf("migration changed identity: etag %s -> %s", before.ETag(), meta.ETag())
	}
}

// TestMultipartObjectMigrates pins that a completed multipart object can
// be moved: the optimizer's migration and a forced re-stripe repair both
// rewrite it under a new placement, keep its md5(part digests)-N ETag,
// and read back identical bytes.
func TestMultipartObjectMigrates(t *testing.T) {
	payload := make([]byte, 5*1024+300) // parts: 3 whole stripes + 2.3 stripes
	rand.New(rand.NewSource(11)).Read(payload)

	t.Run("optimizer", func(t *testing.T) {
		clock := NewSimClock()
		b := newTestBroker(t, Config{Clock: clock, StripeBytes: 1024, DecisionPeriod: 4, MigrationHorizon: 1 << 30})
		e := b.Engine(0)
		b.Rules().SetContainerRule("mp", core.Rule{Name: "lockin", Durability: 0.99999, Availability: 0.99, LockIn: 0.2})
		before := putMultipart(t, e, "mp", "obj", payload, 3*1024)
		if slices.Contains(before.Chunks, cloud.NameCheapStor) {
			t.Fatal("CheapStor not registered yet")
		}
		b.Registry().Register(cloud.NewBlobStore(cloud.CheapStorProvider()))
		for i := 0; i < 8; i++ {
			clock.Advance(1)
			if _, _, err := e.Get(ctx, "mp", "obj"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Optimize(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if after, _ := b.CurrentPlacement("mp/obj"); !after.Has(cloud.NameCheapStor) {
			t.Fatalf("placement %v ignores the cheaper provider", after)
		}
		checkMigrated(t, e, "mp", "obj", before, payload)
	})

	t.Run("restripe-repair", func(t *testing.T) {
		b := newTestBroker(t, Config{Registry: repairMarket(), StripeBytes: 1024, ForceRestripeRepair: true})
		e := b.Engine(0)
		b.Rules().SetContainerRule("mp", repairRule)
		before := putMultipart(t, e, "mp", "obj", payload, 3*1024)
		blob(t, b, before.Chunks[0]).SetAvailable(false)
		rep, err := b.Repair(ctx, RepairActive)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restriped != 1 {
			t.Fatalf("repair report = %+v, want one re-stripe", rep)
		}
		checkMigrated(t, e, "mp", "obj", before, payload)
	})
}

// TestMigrateCorruptSourceRollsBack: a migration whose source serves a
// rotted stripe fails with ErrChecksum, commits nothing and leaves no
// chunk of the would-be new version at any provider.
func TestMigrateCorruptSourceRollsBack(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024})
	e := b.Engine(0)
	payload := testPayload(4 * 1024)
	meta, err := e.Put(ctx, "c", "k", payload, PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corruptStripe(t, b, meta, 2)
	chunkCount := func() int {
		n := 0
		for _, s := range b.Registry().Snapshot() {
			n += s.(*cloud.BlobStore).ObjectCount()
		}
		return n
	}
	before := chunkCount()

	err = e.migrate(context.Background(), meta, currentPlacementFromMeta(e, meta))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("migrate of corrupt source = %v, want ErrChecksum", err)
	}
	if after := chunkCount(); after != before {
		t.Fatalf("failed migration left %d new chunks behind", after-before)
	}
	if live, err := e.Head(ctx, "c", "k"); err != nil || live.UUID != meta.UUID {
		t.Fatalf("live version after failed migration = %v (%v), want %s", live.UUID, err, meta.UUID)
	}
}
