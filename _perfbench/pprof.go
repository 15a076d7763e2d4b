package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, enough to attribute CPU samples to modules. The module has no
// third-party dependencies, so this stands in for github.com/google/pprof.

type profSample struct {
	locs   []uint64
	count  int64
	labels [][2]int64 // (key, value) string table indices
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// label returns the value of a sample's label key, or "".
func (p *profile) label(s profSample, key string) string {
	for _, l := range s.labels {
		if p.str(l[0]) == key {
			return p.str(l[1])
		}
	}
	return ""
}

// stack returns the function names of a sample, leaf first.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locFuncs[l] {
			out = append(out, p.str(p.funcNames[f]))
		}
	}
	return out
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			s, err := parseSample(b)
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			return parseLocation(b, p.locFuncs)
		case 5: // function
			return parseFunction(b, p.funcNames)
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	var values []uint64
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return appendVarints(&s.locs, wire, v, sub)
		case 2:
			return appendVarints(&values, wire, v, sub)
		case 3: // label
			l := [2]int64{-1, -1}
			s.labels = append(s.labels, l)
			return eachField(sub, func(n int, w int, lv uint64, _ []byte) error {
				if n == 1 || n == 2 {
					s.labels[len(s.labels)-1][n-1] = int64(lv)
				}
				return nil
			})
		}
		return nil
	})
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, err
}

func parseLocation(b []byte, into map[uint64][]uint64) error {
	var id uint64
	var funcs []uint64
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // line
			return eachField(sub, func(n int, w int, fv uint64, _ []byte) error {
				if n == 1 {
					funcs = append(funcs, fv)
				}
				return nil
			})
		}
		return nil
	})
	into[id] = funcs
	return err
}

func parseFunction(b []byte, into map[uint64]int64) error {
	var id uint64
	name := int64(-1)
	err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	into[id] = name
	return err
}

// appendVarints decodes a repeated integer field in either packed or
// unpacked encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its integer value or its bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const modulePrefix = "autoindex/internal/"

// moduleOf returns the autoindex module a function belongs to ("dta" for
// autoindex/internal/recommend/dta), "bench" for the benchmark's own
// code, and "" for runtime and standard-library frames.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "recommend/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// cumFuncs name the entry points whose cumulative share of samples the
// traced run reports: the blocking-path split of each workload.
var cumFuncs = []struct{ metric, prefix string }{
	{"workload.replay_cum_pct", modulePrefix + "workload.(*Tenant).Replay"},
	{"engine.exec_cum_pct", modulePrefix + "engine.(*Database).Exec"},
	{"optimizer.plan_cum_pct", modulePrefix + "optimizer.(*Optimizer).Plan"},
	{"controlplane.step_cum_pct", modulePrefix + "controlplane.(*ControlPlane).stepFiltered"},
	{"engine.whatif_cum_pct", modulePrefix + "engine.(*WhatIfSession)."},
	{"fleet.hibernate_cum_pct", modulePrefix + "fleet.hibernateTenant"},
	{"fleet.hibernate_cum_pct", modulePrefix + "fleet.rehydrateTenant"},
}

// attribute splits the CPU samples of the benchmark's measured sections
// (label bench=timed) into percentages: each goes to the module of its
// nearest autoindex frame, runtime and standard-library frames being
// charged to their autoindex caller; samples with no autoindex frame at
// all are unattributed. cum gives the share of samples under each of
// cumFuncs.
func attribute(p *profile) (modules, cum map[string]float64, other float64, total int64) {
	modCount := map[string]int64{}
	cumCount := map[string]int64{}
	var none int64
	for _, s := range p.samples {
		if p.label(s, "bench") != "timed" {
			continue
		}
		stack := p.stack(s)
		total += s.count
		mod := ""
		for _, fn := range stack {
			if mod = moduleOf(fn); mod != "" {
				break
			}
		}
		if mod != "" {
			modCount[mod] += s.count
		} else {
			none += s.count
		}
		seen := map[string]bool{}
		for _, c := range cumFuncs {
			if !seen[c.metric] && containsFunc(stack, c.prefix) {
				seen[c.metric] = true
				cumCount[c.metric] += s.count
			}
		}
	}
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	modules = map[string]float64{}
	for m, n := range modCount {
		modules[m] = pct(n)
	}
	cum = map[string]float64{}
	for m, n := range cumCount {
		cum[m] = pct(n)
	}
	return modules, cum, pct(none), total
}

func containsFunc(stack []string, prefix string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}
