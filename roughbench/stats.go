package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// memWatch measures the heap over a phase: bytes allocated, from the
// runtime's cumulative counter, and the live heap the garbage collector
// found at the end of every cycle in the phase.
type memWatch struct {
	alloc0 uint64
	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	cycles uint64
	lives  []float64 // post-GC live heap per GC cycle, MB
}

const (
	allocsMetric = "/gc/heap/allocs:bytes"
	liveMetric   = "/gc/heap/live:bytes"
	cyclesMetric = "/gc/cycles/total:gc-cycles"
)

func readHeap() (allocs, live, cycles uint64) {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: liveMetric}, {Name: cyclesMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// watchMemory collects garbage left by set-up, then starts sampling
// every 5 ms, well inside the gap between two GC cycles of any
// workload.
func watchMemory() *memWatch {
	runtime.GC()
	w := &memWatch{stop: make(chan struct{})}
	w.sample()
	w.alloc0, _, _ = readHeap()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.sample()
			}
		}
	}()
	return w
}

// sample records the live heap of a GC cycle not seen before.
func (w *memWatch) sample() {
	_, live, cycles := readHeap()
	w.mu.Lock()
	if cycles != w.cycles {
		w.cycles = cycles
		w.lives = append(w.lives, float64(live)/1e6)
	}
	w.mu.Unlock()
}

// finish stops sampling and returns the bytes allocated since
// watchMemory and the peak live heap in MB, taken as the 90th
// percentile over the phase's GC cycles: the single highest cycle
// depends on whether a collection happened to land while both workers
// held their largest objects, and varied by a fifth from run to run on
// fft-point.
func (w *memWatch) finish() (allocBytes uint64, peakLiveMB float64, cycles int) {
	close(w.stop)
	w.wg.Wait()
	w.sample()
	a, _, _ := readHeap()
	return a - w.alloc0, quantile(w.lives, 0.9), len(w.lives)
}

// provenance records what a result was measured on.
func provenance(o options) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"commit":        commit,
		"source_digest": sourceDigest("."),
		"tree_modified": modified,
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name on Linux ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the source tree a result was built from when
// no VCS revision is stamped into the binary: the SHA-256 over the
// paths and contents of every go.mod and .go file under root, skipping
// hidden directories (build output lives in .bench_build).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
