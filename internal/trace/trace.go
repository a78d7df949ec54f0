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

// Collector accumulates transmitted traffic. It is safe for concurrent use
// (the TCP deployment mode records from many goroutines). The zero value is
// not ready; use NewCollector.
type Collector struct {
	mu          sync.Mutex
	bucketWidth time.Duration
	buckets     []int64 // bytes sent per time bucket, all nodes
	msgs        int
	bytes       int64
}

// NewCollector returns a collector bucketing traffic at the given width
// (e.g. 10 ms buckets for the paper's 0–0.4 s bandwidth plots).
func NewCollector(bucketWidth time.Duration) *Collector {
	if bucketWidth <= 0 {
		bucketWidth = 10 * time.Millisecond
	}
	return &Collector{bucketWidth: bucketWidth}
}

// RecordSend accounts one transmitted message of the given size at virtual
// (or wall) time at.
func (c *Collector) RecordSend(bytes int, at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs++
	c.bytes += int64(bytes)
	b := int(at / c.bucketWidth)
	for len(c.buckets) <= b {
		c.buckets = append(c.buckets, 0)
	}
	c.buckets[b] += int64(bytes)
}

// Totals returns total messages and bytes sent across all nodes.
func (c *Collector) Totals() (msgs int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs, c.bytes
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
	n := int(upTo / c.bucketWidth)
	if n == 0 {
		n = len(c.buckets)
	}
	out := make([]Point, n)
	sec := c.bucketWidth.Seconds()
	for i := 0; i < n; i++ {
		var bytes int64
		if i < len(c.buckets) {
			bytes = c.buckets[i]
		}
		mbps := 0.0
		if numNodes > 0 {
			mbps = float64(bytes) / float64(numNodes) / sec / 1e6
		}
		out[i] = Point{Time: time.Duration(i) * c.bucketWidth, MBps: mbps}
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
