package stats

import "sort"

// Snapshot is the unified flat view of a subsystem's metrics: metric
// name to scalar value. Every statistics-bearing component (caches,
// DRAM devices, the OS model, memory-system controllers, and whole
// simulation results) can flatten itself into this one shape, so
// consumers — the server's expvar surface, the experiment figure
// emitters, the CLI's counter dump — need a single code path instead of
// one per bespoke stats struct.
//
// Keys are lower_snake_case; nested subsystems are namespaced with a
// dot prefix (e.g. "ctrl.swaps", "mem_stacked.row_hits").
type Snapshot map[string]float64

// Keys returns the metric names in sorted order, for deterministic
// rendering.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge copies src into s, prefixing every key with "prefix." (or
// verbatim for an empty prefix), and returns s for chaining.
func (s Snapshot) Merge(prefix string, src Snapshot) Snapshot {
	for k, v := range src {
		if prefix != "" {
			k = prefix + "." + k
		}
		s[k] = v
	}
	return s
}

// Add accumulates src into s (missing keys start at zero), prefixing
// like Merge. Used by long-running consumers that aggregate snapshots
// across many runs.
func (s Snapshot) Add(prefix string, src Snapshot) Snapshot {
	for k, v := range src {
		if prefix != "" {
			k = prefix + "." + k
		}
		s[k] += v
	}
	return s
}
