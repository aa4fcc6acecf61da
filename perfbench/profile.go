package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: per sample, the CPU time, the leaf function and the labels.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	nanos  int64
	leaf   string // innermost function, after inlining
	labels map[string]string
}

// parseProfile decodes a gzipped profile.proto message as written by
// runtime/pprof. Only the fields the benchmark needs are decoded: the
// sample values, location and label references, locations' first line,
// function names and the string table.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	const valueSlot = 1 // sample values are [samples/count, cpu/nanoseconds]
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples  []rawSample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> name string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && fn == 0: // first line = innermost inlined call
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) <= valueSlot || len(s.locs) == 0 {
			continue
		}
		ps := profSample{
			nanos:  s.values[valueSlot],
			leaf:   str(funcName[locFunc[s.locs[0]]]),
			labels: make(map[string]string, len(s.labels)),
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// modules are the layers self time is attributed to: the simulator's
// packages under internal/, the Go runtime, and everything else (the
// benchmark harness and the rest of the standard library).
var modules = []string{
	"android", "core", "cpu", "tlb", "cache", "pagetable", "vm",
	"checkpoint", "imagestore", "obs", "workload", "arch", "mem",
	"runtime", "other",
}

// moduleOf maps a fully qualified Go function name to its layer.
func moduleOf(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			end = len(rest)
		}
		for _, m := range modules {
			if rest[:end] == m {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}

// selfPct returns each module's share of the profile's CPU time, in
// percent, by leaf function.
func (p *cpuProfile) selfPct() map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		by[moduleOf(s.leaf)] += s.nanos
		total += s.nanos
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			out[m] = 100 * float64(by[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// labelled returns the CPU time of the samples carrying each value of
// the given label key.
func (p *cpuProfile) labelled(key string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if v, ok := s.labels[key]; ok {
			out[v] += s.nanos
		}
	}
	return out
}
