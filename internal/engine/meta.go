package engine

import (
	"crypto/md5"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"scalia/internal/metadata"
)

// ObjectMeta is the metadata Scalia stores per object version — the
// paper's Fig. 11: file metadata (name, mime, checksum, size, policy,
// container) and striping metadata (chunk -> provider map, threshold m,
// storage key).
type ObjectMeta struct {
	Container string `json:"container"`
	Key       string `json:"key"`
	MIME      string `json:"mime"`
	Size      int64  `json:"size"`
	// Checksum is the object's ETag value (Fig. 11's checksum): the
	// MD5 of the body for a single PUT, as S3 clients expect, or the
	// S3 multipart composite md5(part digests)-N. Migration keeps it
	// unchanged. Integrity checks use StripeSums, not this.
	Checksum string `json:"checksum"`
	RuleName string `json:"policy"`
	Class    string `json:"class"`

	SKey      string   `json:"skey"`      // MD5(container | key | UUID)
	M         int      `json:"m"`         // erasure threshold
	Chunks    []string `json:"chunks"`    // chunk index -> provider name
	UUID      string   `json:"uuid"`      // version identity
	TTLHours  float64  `json:"ttlHours"`  // user lifetime hint; 0 = none
	CreatedAt int64    `json:"createdAt"` // period of first write

	// Stripes and StripeBytes describe the streaming layout: the object
	// is split into Stripes consecutive stripes of up to StripeBytes
	// payload each, and every stripe is erasure-coded independently, so
	// reads and writes proceed stripe by stripe without materializing
	// the whole object. Stripes <= 1 marks a single-stripe object, which
	// keeps the legacy chunk-key layout.
	Stripes     int   `json:"stripes,omitempty"`
	StripeBytes int64 `json:"stripeBytes,omitempty"`
	// StripeSums holds the hex SHA-256 of each stripe's payload, so
	// every decoded stripe is verified on its own — before it is served
	// or enters the stripe cache, on ranged reads as on full ones, and
	// before repair re-encodes it. Every write path records them; a
	// version lacking the digest of a stripe it must decode is refused
	// with ErrChecksum.
	StripeSums []string `json:"stripeSums,omitempty"`
	// PartStripes, set on objects assembled from a multipart upload,
	// records how many stripes each part contributed (part 1 first; the
	// values sum to Stripes). Multipart chunk keys are part-scoped — the
	// keys the parts were staged under ARE the committed keys, so
	// completing an upload moves no chunk data. Every part except the
	// last covers a whole number of stripes, so the global stripe
	// geometry (stripeSpan, stripeLen) is identical to a plain object's.
	PartStripes []int `json:"partStripes,omitempty"`
}

// Multipart reports whether this version was assembled from a
// multipart upload. Such versions use part-scoped chunk keys and an
// ETag-of-ETags checksum instead of a whole-body MD5.
func (m ObjectMeta) Multipart() bool { return len(m.PartStripes) > 0 }

// stripeSum returns the stored SHA-256 of stripe s, or "" when the
// metadata records none.
func (m ObjectMeta) stripeSum(s int) string {
	if s < 0 || s >= len(m.StripeSums) {
		return ""
	}
	return m.StripeSums[s]
}

// verifyStripe checks stripe s's decoded payload against its stored
// SHA-256. A missing digest fails closed: an unverifiable stripe is
// never served, cached or re-encoded.
func (m ObjectMeta) verifyStripe(s int, payload []byte) error {
	want := m.stripeSum(s)
	got := sha256.Sum256(payload)
	if want == "" || hex.EncodeToString(got[:]) != want {
		return fmt.Errorf("%w: stripe %d", ErrChecksum, s)
	}
	return nil
}

// StripeCount returns the number of stripes the object is stored as
// (at least 1; legacy single-stripe metadata reports 1).
func (m ObjectMeta) StripeCount() int {
	if m.Stripes <= 1 {
		return 1
	}
	return m.Stripes
}

// stripeSpan returns the nominal payload bytes per stripe — the
// divisor that maps a byte offset to its stripe index. Single-stripe
// objects span their whole size regardless of the recorded StripeBytes.
func (m ObjectMeta) stripeSpan() int64 {
	if m.StripeCount() == 1 || m.StripeBytes <= 0 {
		if m.Size > 0 {
			return m.Size
		}
		return 1
	}
	return m.StripeBytes
}

// stripeLen returns the payload length of stripe s.
func (m ObjectMeta) stripeLen(s int) int64 {
	if m.StripeCount() == 1 {
		return m.Size
	}
	start := int64(s) * m.StripeBytes
	if left := m.Size - start; left < m.StripeBytes {
		return left
	}
	return m.StripeBytes
}

// ETag returns the object's entity tag for conditional HTTP requests:
// the quoted content checksum, as S3 does for simple uploads.
func (m ObjectMeta) ETag() string { return `"` + m.Checksum + `"` }

// RowKey returns the metadata row key: MD5(container | key) (§III-D1).
func RowKey(container, key string) string {
	sum := md5.Sum([]byte(container + "|" + key))
	return hex.EncodeToString(sum[:])
}

// StorageKey derives skey = MD5(container | key | UUID) (§III-D1); the
// UUID makes concurrent updates write disjoint chunk keys so they cannot
// corrupt each other.
func StorageKey(container, key, uuid string) string {
	sum := md5.Sum([]byte(container + "|" + key + "|" + uuid))
	return hex.EncodeToString(sum[:])
}

// ChunkKey names chunk i of a single-stripe object version.
func ChunkKey(skey string, i int) string {
	return fmt.Sprintf("%s/chunk%03d", skey, i)
}

// ChunkKeyAt names chunk i of stripe s for an object stored as stripes
// stripes. Single-stripe objects keep the legacy ChunkKey layout so
// metadata written before striping stays addressable.
func ChunkKeyAt(skey string, stripes, s, i int) string {
	if stripes <= 1 {
		return ChunkKey(skey, i)
	}
	return fmt.Sprintf("%s/s%05d/chunk%03d", skey, s, i)
}

// PartChunkKey names chunk i of local stripe s of part number part of a
// multipart upload. Parts stage their chunks under these keys, and a
// completed multipart object keeps them, so completion is a metadata-
// only commit.
func PartChunkKey(skey string, part, s, i int) string {
	return fmt.Sprintf("%s/p%05d/s%05d/chunk%03d", skey, part, s, i)
}

// chunkKey names chunk i of stripe s of this object version. For
// multipart versions the global stripe index is mapped to (part, local
// stripe) through PartStripes.
func (m ObjectMeta) chunkKey(s, i int) string {
	if len(m.PartStripes) > 0 {
		part := 1
		for _, ns := range m.PartStripes {
			if s < ns {
				return PartChunkKey(m.SKey, part, s, i)
			}
			s -= ns
			part++
		}
		// A stripe index past the recorded parts indicates corrupt
		// metadata; fall through to the plain layout, which will miss.
	}
	return ChunkKeyAt(m.SKey, m.StripeCount(), s, i)
}

// NewUUID returns a random 128-bit identifier (RFC 4122 v4 layout).
func NewUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("engine: system randomness unavailable: " + err.Error())
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// metaColumn is the column name holding the JSON-encoded ObjectMeta.
const metaColumn = "meta"

// encodeMeta packs an ObjectMeta into an MVCC version.
func encodeMeta(m ObjectMeta, timestamp int64) (metadata.Version, error) {
	blob, err := json.Marshal(m)
	if err != nil {
		return metadata.Version{}, fmt.Errorf("engine: encode meta: %w", err)
	}
	return metadata.Version{
		UUID:      m.UUID,
		Timestamp: timestamp,
		Columns:   map[string]string{metaColumn: string(blob)},
	}, nil
}

// decodeMeta unpacks an MVCC version into an ObjectMeta.
func decodeMeta(v metadata.Version) (ObjectMeta, error) {
	var m ObjectMeta
	if err := json.Unmarshal([]byte(v.Columns[metaColumn]), &m); err != nil {
		return ObjectMeta{}, fmt.Errorf("engine: decode meta: %w", err)
	}
	return m, nil
}
