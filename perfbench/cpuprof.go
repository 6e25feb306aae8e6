package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuClasses are the CPU-profile buckets a traced run reports, as
// shares of all samples.
var cpuClasses = []string{"md5", "erasure", "memmove", "gc", "net", "other"}

// classifyStack assigns one CPU sample to a class. GC work is attributed
// by its worker root (its leaf frames are generic runtime helpers);
// everything else by the leaf frame, the function that was on the CPU.
func classifyStack(frames []string) string {
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	switch {
	case strings.HasPrefix(leaf, "crypto/md5."):
		return "md5"
	case strings.HasPrefix(leaf, "scalia/internal/erasure."):
		return "erasure"
	case leaf == "runtime.memmove":
		return "memmove"
	}
	for _, p := range []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.",
		"internal/poll.", "net.", "net/http.", "net/textproto.", "bufio.", "runtime.netpoll"} {
		if strings.HasPrefix(leaf, p) {
			return "net"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile (the protobuf that
// runtime/pprof writes) and returns each class's share of the samples.
// Only the fields needed for leaf attribution are decoded.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64][]uint64{} // location -> function ids, innermost first
		funName = map[uint64]int64{}    // function -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = vals[0]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locFunc[l] {
				frames = append(frames, name(fn))
			}
		}
		by[classifyStack(frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(cpuClasses))
	for _, c := range cpuClasses {
		if total > 0 {
			out[c] = float64(by[c]) / float64(total)
		}
	}
	return out, nil
}

// appendUints appends a repeated varint field's values: one value for
// the unpacked encoding, or every varint of a packed payload.
func appendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := varint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// varint decodes one base-128 varint, returning the value and its
// length (0 when truncated).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
