package maintain

import (
	"fmt"
	"testing"
	"time"
)

// benchWindow fills a maintainer with n synthetic sessions drawn from a
// shared URL universe, so the trained tree has realistic branch reuse.
func benchWindow(b *testing.B, m *Maintainer, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		m.Observe(mkSession(i%100,
			fmt.Sprintf("/hub%d", i%8),
			fmt.Sprintf("/page%d", i%64),
			fmt.Sprintf("/leaf%d", i%256)))
	}
}

// BenchmarkFullRebuild retrains the whole window; cost grows with
// window size.
func BenchmarkFullRebuild(b *testing.B) {
	for _, window := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			m, err := New(Config{Factory: pbFactory})
			if err != nil {
				b.Fatal(err)
			}
			benchWindow(b, m, window)
			now := epoch.Add(200 * time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Rebuild(now)
			}
		})
	}
}

// BenchmarkDeltaMerge trains a fixed-size delta into the editable
// model in place and publishes its freeze; across the same window sizes
// as BenchmarkFullRebuild the per-update cost should track the delta
// (plus the freeze), not the window.
func BenchmarkDeltaMerge(b *testing.B) {
	const delta = 64
	for _, window := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("window=%d/delta=%d", window, delta), func(b *testing.B) {
			m, err := New(Config{Factory: pbFactory})
			if err != nil {
				b.Fatal(err)
			}
			benchWindow(b, m, window)
			now := epoch.Add(200 * time.Hour)
			m.Rebuild(now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < delta; j++ {
					m.Observe(mkSession(50,
						fmt.Sprintf("/hub%d", j%8),
						fmt.Sprintf("/page%d", (i+j)%64)))
				}
				b.StartTimer()
				m.DeltaMerge(now)
			}
		})
	}
}

// BenchmarkDeltaMergeByDeltaSize varies the delta at a fixed window,
// the other half of the scaling claim: update cost is O(new sessions).
func BenchmarkDeltaMergeByDeltaSize(b *testing.B) {
	const window = 4000
	for _, delta := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			m, err := New(Config{Factory: pbFactory})
			if err != nil {
				b.Fatal(err)
			}
			benchWindow(b, m, window)
			now := epoch.Add(200 * time.Hour)
			m.Rebuild(now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < delta; j++ {
					m.Observe(mkSession(50,
						fmt.Sprintf("/hub%d", j%8),
						fmt.Sprintf("/page%d", (i+j)%64)))
				}
				b.StartTimer()
				m.DeltaMerge(now)
			}
		})
	}
}
