package db

// CrashForTest is the test-suite alias of Crash.
func (d *DB) CrashForTest() { d.Crash() }

// DebugLevels exposes the per-level file counts.
func (d *DB) DebugLevels() [7]int { return d.debugLevels() }

// withCompactionIO sets the compaction I/O widths: blocks per cloud-input
// range GET and output uploads in flight. Both at 1 give the serial oracle
// the pipeline tests compare against; 0 keeps the pipeline's fixed widths.
func (o Options) withCompactionIO(spanBlocks, uploads int) Options {
	o.compactionSpanBlocks = spanBlocks
	o.uploadWorkers = uploads
	return o
}
