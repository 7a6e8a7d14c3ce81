package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the buckets a traced pass's CPU samples are attributed
// to, each reported as cpu.<layer> in percent of all samples.
var cpuLayers = []string{
	"radio", "mobility", "core", "netstack", "sim", "addrspace",
	"daemon", "udptransport", "wire", "obs", "metrics", "ctl",
	"net_http", "syscall", "gc", "other",
}

// profile is a running CPU profile.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of CPU samples.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	total := 0.0
	byLayer := map[string]float64{}
	for _, s := range stacks {
		byLayer[attribute(s.frames)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = ratio(byLayer[l], total) * 100
	}
	return shares, nil
}

// attribute names the layer a sample's CPU time belongs to. frames run
// leaf first. Garbage collection and system calls are layers of their
// own; otherwise the time belongs to the innermost frame in one of this
// module's packages — so the standard-library sort a radio snapshot runs
// is radio's time — and, failing that, to net/http or "other".
func attribute(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || f == "runtime.markroot" || f == "runtime.scanobject" {
			return "gc"
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/") &&
			!strings.HasPrefix(f, "syscall.") {
			break
		}
		if strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/runtime/syscall.") ||
			strings.HasPrefix(f, "internal/poll.") || f == "runtime.netpoll" || f == "runtime.futex" {
			return "syscall"
		}
	}
	const module = "quorumconf/internal/"
	for _, f := range frames {
		if !strings.HasPrefix(f, module) {
			continue
		}
		path := f[len(module):]
		if dot := strings.Index(path[strings.LastIndex(path, "/")+1:], "."); dot >= 0 {
			path = path[:strings.LastIndex(path, "/")+1+dot]
		}
		pkg := path[strings.LastIndex(path, "/")+1:]
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "net_http"
		}
	}
	return "other"
}

// stack is one profile sample: its frames (leaf first, inlined frames
// expanded) and its last value (CPU nanoseconds).
type stack struct {
	frames []string
	value  float64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes —
// only the fields attribution needs: samples, locations, functions and
// the string table.
func parseProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
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
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{value: float64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, given either one
// unpacked value v or the packed bytes b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
