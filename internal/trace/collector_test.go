package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCollectorConcurrent hammers one collector from many goroutines —
// the TCP deployment mode's access pattern — and checks nothing is lost.
// Run under -race in CI, this also proves the locking is complete.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(10 * time.Millisecond)
	const workers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.RecordSend(100, time.Duration(i)*time.Millisecond)
				if i%50 == 0 {
					c.BandwidthSeries(8, 200*time.Millisecond)
					c.Totals()
				}
			}
		}()
	}
	wg.Wait()
	msgs, bytes := c.Totals()
	if msgs != workers*per || bytes != int64(workers*per*100) {
		t.Errorf("Totals = %d msgs / %d bytes, want %d / %d",
			msgs, bytes, workers*per, workers*per*100)
	}
}

// TestBandwidthSeriesBoundary pins BandwidthSeries' behavior at the upTo
// boundary: zero-extension past the recorded buckets, truncation before
// them, the natural length at upTo=0, and the sub-bucket rounding edge.
func TestBandwidthSeriesBoundary(t *testing.T) {
	w := 10 * time.Millisecond
	c := NewCollector(w)
	// Buckets 0,1,2 get traffic (last send at 25 ms → 3 buckets exist).
	c.RecordSend(1000, 0)
	c.RecordSend(1000, 12*time.Millisecond)
	c.RecordSend(1000, 25*time.Millisecond)

	// Zero-extension: a 60 ms horizon yields 6 points, the tail all zero.
	pts := c.BandwidthSeries(1, 60*time.Millisecond)
	if len(pts) != 6 {
		t.Fatalf("extend: %d points, want 6", len(pts))
	}
	for i := 3; i < 6; i++ {
		if pts[i].MBps != 0 {
			t.Errorf("extend: bucket %d not zero: %v", i, pts[i].MBps)
		}
		if pts[i].Time != time.Duration(i)*w {
			t.Errorf("extend: bucket %d time %v", i, pts[i].Time)
		}
	}
	if pts[2].MBps == 0 {
		t.Error("extend: recorded bucket 2 lost")
	}

	// Truncation: a 20 ms horizon cuts the series to 2 points, dropping
	// bucket 2 even though it holds traffic.
	pts = c.BandwidthSeries(1, 20*time.Millisecond)
	if len(pts) != 2 {
		t.Fatalf("truncate: %d points, want 2", len(pts))
	}
	if pts[0].MBps == 0 || pts[1].MBps == 0 {
		t.Errorf("truncate: kept buckets wrong: %+v", pts)
	}

	// upTo = 0 falls back to the recorded length.
	if got := len(c.BandwidthSeries(1, 0)); got != 3 {
		t.Errorf("upTo=0: %d points, want 3 (recorded length)", got)
	}
	// upTo below one bucket width also rounds to 0 → recorded length.
	if got := len(c.BandwidthSeries(1, w-1)); got != 3 {
		t.Errorf("upTo<width: %d points, want 3", got)
	}
	// upTo exactly one width is a genuine 1-point truncation.
	if got := len(c.BandwidthSeries(1, w)); got != 1 {
		t.Errorf("upTo=width: %d points, want 1", got)
	}
}

// TestMergeEqualsRecordSend: tallies merged into a collector — into an
// empty one, which takes the first tally's buckets, and into one that
// already counted, longer and shorter than the tally — leave it exactly
// as recording every send through RecordSend would, and each merge
// empties its tally for reuse.
func TestMergeEqualsRecordSend(t *testing.T) {
	type send struct {
		bytes int
		at    time.Duration
	}
	rounds := [][]send{
		{{100, 0}, {200, 35 * time.Millisecond}},
		{{50, 5 * time.Millisecond}, {70, 95 * time.Millisecond}},
		{{10, 12 * time.Millisecond}},
	}
	merged, direct := NewCollector(10*time.Millisecond), NewCollector(10*time.Millisecond)
	tally := merged.NewTally()
	for _, round := range rounds {
		for _, s := range round {
			tally.Record(s.bytes, s.at)
			direct.RecordSend(s.bytes, s.at)
		}
		merged.Merge(&tally)
		if tally.Bytes() != 0 || tally.msgs != 0 || len(tally.buckets) != 0 {
			t.Fatalf("merge left the tally holding %d msgs, %d bytes, %d buckets", tally.msgs, tally.Bytes(), len(tally.buckets))
		}
		gm, gb := merged.Totals()
		wm, wb := direct.Totals()
		if gm != wm || gb != wb {
			t.Fatalf("merged totals %d / %d, recorded %d / %d", gm, gb, wm, wb)
		}
		got, want := merged.BandwidthSeries(2, 0), direct.BandwidthSeries(2, 0)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("merged series %v, recorded %v", got, want)
		}
	}
}
