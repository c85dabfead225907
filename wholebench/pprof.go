package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into seconds per layer
// without the pprof tool: a minimal reader of the gzipped profile.proto
// messages the runtime writes (samples, locations, functions, strings).

// foldProfile adds the profile's CPU seconds into byLayer and byPkg. A
// sample is charged to the innermost frame whose package maps to a layer
// (see layerOf), so time in generic library code — sort, strconv, fmt,
// reflect — counts for the layer that called it, while runtime frames
// (allocation, GC, scheduling) count as runtime. byPkg is keyed by the
// leaf frame's package.
func foldProfile(data []byte, byLayer, byPkg map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	vi := len(p.sampleTypes) - 1 // cpu nanoseconds is the last value
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		var frames []string // leaf first
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		if len(frames) == 0 {
			byLayer["other"] += sec
			continue
		}
		byPkg[pkgOf(frames[0])] += sec
		layer := "other"
		for _, fn := range frames {
			if l := layerOf(pkgOf(fn)); l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += sec
	}
	return nil
}

// pkgOf returns the import path of a qualified Go function name such as
// "erms/internal/netsim.(*Fabric).computeRates". Unqualified names are the
// runtime's assembly routines (aeshashbody, memeqbody).
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// layerOf maps a package to the layer its CPU time is reported under, or
// "" for library code charged to its caller.
func layerOf(pkg string) string {
	switch pkg {
	case "erms/internal/sim":
		return "sim"
	case "erms/internal/netsim":
		return "netsim"
	case "erms/internal/hdfs":
		return "hdfs"
	case "erms/internal/mapred":
		return "mapred"
	case "erms/internal/cep":
		return "cep"
	case "erms/internal/core":
		return "core"
	case "erms/internal/condor", "erms/internal/classad":
		return "condor"
	case "erms/internal/auditlog":
		return "auditlog"
	case "erms/internal/metrics":
		return "metrics"
	case "erms/internal/server", "internal/poll", "syscall", "bufio":
		return "server"
	case "encoding/json":
		return "json"
	case "erms", "erms/internal/federation":
		return "facade"
	case "erms/internal/workload":
		return "workload"
	case "main":
		return "bench"
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "server"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(pkg, "erms/"):
		return "erms-other"
	}
	return ""
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes []int64 // string-table indexes of each value's type
	samples     []profSample
	locFuncs    map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
	fValueTypeType     = 1
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]string{}}
	var strs []string
	locLines := map[uint64][]uint64{} // location -> function ids
	funcName := map[uint64]int64{}    // function id -> string index
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s profSample
			err := eachField(msg, func(n, w int, v uint64, m []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(w, v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(w, v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n, _ int, v uint64, m []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(m, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locLines {
		for _, f := range fns {
			idx := funcName[f]
			if idx < 0 || int(idx) >= len(strs) {
				return nil, fmt.Errorf("profile: function %d names string %d of %d", f, idx, len(strs))
			}
			p.locFuncs[loc] = append(p.locFuncs[loc], strs[idx])
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks a protobuf message, calling fn with each field's number
// and wire type, its value for varint and fixed fields, and its bytes for
// length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field written either packed
// (wire type 2) or one value per field (wire type 0).
func appendVarints(wire int, v uint64, msg []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := varint(msg)
		if n == 0 {
			return errTruncated
		}
		add(x)
		msg = msg[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the bytes
// consumed (0 when b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
