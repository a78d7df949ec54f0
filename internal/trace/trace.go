// Package trace collects the traffic figures the paper's evaluation plots:
// message and byte totals, and bandwidth utilization over time (Figures 5
// and 6). A Collector is attached to a simulation or deployment run, counts
// every transmitted message into a time bucket, and is queried afterwards.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Tally counts transmitted traffic without synchronisation: messages,
// bytes, and bytes per time bucket. A simulation run, which sends from one
// goroutine, counts into its own Tally and merges it into a Collector with
// Merge; the Collector counts into one behind its lock. The zero value
// is not ready; use Collector.NewTally.
type Tally struct {
	bucketWidth time.Duration
	buckets     []int64 // bytes sent per time bucket, all nodes
	msgs        int
	bytes       int64
}

// Record accounts one transmitted message of the given size at virtual (or
// wall) time at. It is the one accounting routine: Collector.RecordSend
// calls it under the collector's lock.
func (t *Tally) Record(bytes int, at time.Duration) {
	t.msgs++
	t.bytes += int64(bytes)
	b := int(at / t.bucketWidth)
	for len(t.buckets) <= b {
		t.buckets = append(t.buckets, 0)
	}
	t.buckets[b] += int64(bytes)
}

// Bytes returns the bytes counted so far.
func (t *Tally) Bytes() int64 { return t.bytes }

// Collector accumulates transmitted traffic. It is safe for concurrent use
// (the TCP deployment mode records from many goroutines). The zero value is
// not ready; use NewCollector.
type Collector struct {
	mu sync.Mutex
	t  Tally
}

// NewCollector returns a collector bucketing traffic at the given width
// (e.g. 10 ms buckets for the paper's 0–0.4 s bandwidth plots).
func NewCollector(bucketWidth time.Duration) *Collector {
	if bucketWidth <= 0 {
		bucketWidth = 10 * time.Millisecond
	}
	return &Collector{t: Tally{bucketWidth: bucketWidth}}
}

// NewTally returns an empty tally at the collector's bucket width, ready to
// be merged into it.
func (c *Collector) NewTally() Tally { return Tally{bucketWidth: c.t.bucketWidth} }

// RecordSend accounts one transmitted message of the given size at virtual
// (or wall) time at.
func (c *Collector) RecordSend(bytes int, at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Record(bytes, at)
}

// Merge adds a tally made by NewTally into the collector and empties it.
// A collector that has counted nothing takes the tally's buckets whole;
// otherwise the tally keeps its bucket storage for reuse.
func (c *Collector) Merge(t *Tally) {
	if t.msgs == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t.msgs == 0 {
		c.t.buckets, t.buckets = t.buckets, c.t.buckets
	} else {
		for len(c.t.buckets) < len(t.buckets) {
			c.t.buckets = append(c.t.buckets, 0)
		}
		for i, b := range t.buckets {
			c.t.buckets[i] += b
		}
	}
	c.t.msgs += t.msgs
	c.t.bytes += t.bytes
	clear(t.buckets)
	t.buckets = t.buckets[:0]
	t.msgs, t.bytes = 0, 0
}

// Totals returns total messages and bytes sent across all nodes.
func (c *Collector) Totals() (msgs int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.msgs, c.t.bytes
}

// Point is one sample of a bandwidth time series.
type Point struct {
	Time time.Duration
	// MBps is the average per-node bandwidth in megabytes per second over
	// the bucket, the unit of Figures 5 and 6.
	MBps float64
}

// BandwidthSeries returns the average per-node bandwidth utilization over
// time: for each bucket, bytes sent across all nodes divided by the node
// count and the bucket width. numNodes scales to a per-node average; upTo
// truncates or zero-extends the series to a fixed horizon so different runs
// plot over the same x axis.
func (c *Collector) BandwidthSeries(numNodes int, upTo time.Duration) []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	width, buckets := c.t.bucketWidth, c.t.buckets
	n := int(upTo / width)
	if n == 0 {
		n = len(buckets)
	}
	out := make([]Point, n)
	sec := width.Seconds()
	for i := 0; i < n; i++ {
		var bytes int64
		if i < len(buckets) {
			bytes = buckets[i]
		}
		mbps := 0.0
		if numNodes > 0 {
			mbps = float64(bytes) / float64(numNodes) / sec / 1e6
		}
		out[i] = Point{Time: time.Duration(i) * width, MBps: mbps}
	}
	return out
}

// FormatSeries renders a bandwidth series as the two-column table the
// paper's gnuplot figures consume (time seconds, MBps).
func FormatSeries(points []Point) string {
	var b strings.Builder
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f\t%.6f\n", p.Time.Seconds(), p.MBps)
	}
	return b.String()
}
