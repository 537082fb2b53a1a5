package sstable

import (
	"fmt"
	"testing"

	"rocksmash/internal/keys"
	"rocksmash/internal/storage"
)

// coldCloudTable writes a table of about 2 MiB (4 KiB blocks) to a simulated
// cloud store without latency and returns the store, an open handle to the
// object and its data-block handles.
func coldCloudTable(b *testing.B) (*storage.Cloud, storage.Reader, []Handle) {
	b.Helper()
	cloud, err := storage.NewCloud(b.TempDir(), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		b.Fatal(err)
	}
	w, err := cloud.Create("t.sst")
	if err != nil {
		b.Fatal(err)
	}
	bld := NewBuilder(w, BuilderOptions{BlockBytes: 4 << 10, BloomBitsPerKey: 10})
	val := make([]byte, 100)
	for i := 0; i < 16000; i++ {
		ik := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i)), uint64(i+1), keys.KindSet)
		if err := bld.Add(ik, val); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := bld.Finish(); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := cloud.Open("t.sst")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	r, err := Open(f, 1)
	if err != nil {
		b.Fatal(err)
	}
	hs, err := r.DataHandles()
	if err != nil {
		b.Fatal(err)
	}
	return cloud, f, hs
}

// BenchmarkReadDataBlocks reads every data block of one cloud table, either
// one GET per block (ReadRawBlock, the serial compaction read) or one range
// GET per 16-block span (ReadRawSpan, the compaction prefetcher's read), and
// reports the cloud GETs each full-table pass issued.
func BenchmarkReadDataBlocks(b *testing.B) {
	cloud, f, hs := coldCloudTable(b)
	size := int64(hs[len(hs)-1].End() - hs[0].Offset)

	b.Run("per-block", func(b *testing.B) {
		b.SetBytes(size)
		before := cloud.Stats().GetOps.Load()
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if _, err := ReadRawBlock(f, h); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(cloud.Stats().GetOps.Load()-before)/float64(b.N), "gets/op")
	})
	b.Run("span16", func(b *testing.B) {
		spans := PlanSpans(hs, 16)
		b.SetBytes(size)
		before := cloud.Stats().GetOps.Load()
		for i := 0; i < b.N; i++ {
			for _, sp := range spans {
				if _, err := ReadRawSpan(f, sp); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(cloud.Stats().GetOps.Load()-before)/float64(b.N), "gets/op")
	})
}
