package db

import (
	"testing"
	"time"

	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// coldCompactionOptions is a cloud-only geometry with a fast cloud model,
// so one compaction pass finishes quickly while keeping the local ≪ cloud
// request-latency gap the pipeline hides.
func coldCompactionOptions() Options {
	o := DefaultOptions()
	o.Policy = PolicyCloudOnly
	o.MemtableBytes = 1 << 20
	o.LevelBaseBytes = 4 << 20
	o.TargetFileBytes = 1 << 20
	o.PCacheBytes = 16 << 20
	o.CloudLatency = storage.LatencyModel{
		GetFirstByte:   500 * time.Microsecond,
		PutFirstByte:   800 * time.Microsecond,
		MetaRTT:        200 * time.Microsecond,
		ReadBandwidth:  400 << 20,
		WriteBandwidth: 400 << 20,
	}
	return o
}

// loadColdCompactionDir builds a directory holding several uncompacted
// cloud-tier L0 tables, so a reopen can drive (and time) one large
// compaction.
func loadColdCompactionDir(b *testing.B, records int) string {
	b.Helper()
	dir := b.TempDir()
	o := coldCompactionOptions()
	o.L0CompactTrigger = 100 // keep everything in L0 during the load
	o.L0StallFiles = 300
	d, err := OpenAt(dir, o)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 400)
	for i := 0; i < records; i++ {
		if err := d.Put(ycsb.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkPipelinedCompaction times one cloud-tier compaction pass with
// the serial I/O widths (one GET per block, one upload at a time) and with
// the defaults (prefetched span GETs, overlapped uploads).
func BenchmarkPipelinedCompaction(b *testing.B) {
	const records = 8000
	variants := []struct {
		name                string
		spanBlocks, uploads int
	}{
		{"serial", 1, 1},
		{"pipelined", 0, 0},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := loadColdCompactionDir(b, records)
				d, err := OpenAt(dir, coldCompactionOptions().withCompactionIO(v.spanBlocks, v.uploads))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := d.CompactAll(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
