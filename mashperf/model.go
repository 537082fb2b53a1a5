package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// valueSize is the size of every value the benchmark writes.
const valueSize = 400

// Value layout: counter (8) | key length (2) | key | filler | crc32 (4).
// The CRC covers everything before it, so a torn, corrupted or misplaced
// value cannot pass as valid.
const (
	offKeyLen = 8
	offKey    = 10
	offCRC    = valueSize - 4
)

// Checker outcomes. Each wrong result wraps one of these.
var (
	errCorrupt  = errors.New("value fails its checksum or layout")
	errWrongKey = errors.New("value belongs to another key")
	errStale    = errors.New("value older than the last acknowledged write")
	errUnknown  = errors.New("value newer than any write issued")
	errMissing  = errors.New("acknowledged key not found")
	errExtra    = errors.New("key returned that was never written")
	errOrder    = errors.New("scan out of key order")
)

// keyOf formats item i's key. Keys are fixed width, so they sort in item
// order and a scan from item i returns items i, i+1, ...
func keyOf(i int) []byte { return fmt.Appendf(make([]byte, 0, 16), "k%015x", i) }

// encodeValue builds the value of write number counter to key.
func encodeValue(key []byte, counter uint64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v, counter)
	binary.BigEndian.PutUint16(v[offKeyLen:], uint16(len(key)))
	n := copy(v[offKey:offCRC], key)
	s := counter ^ uint64(crc32.ChecksumIEEE(key))<<32
	for i := offKey + n; i < offCRC; i += 8 {
		s += 0x9e3779b97f4a7c15
		z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], z^z>>31)
		copy(v[i:offCRC], b[:])
	}
	binary.BigEndian.PutUint32(v[offCRC:], crc32.ChecksumIEEE(v[:offCRC]))
	return v
}

// checkValue accepts v as the value of key only if it is intact, belongs to
// key, and carries a write counter in [lo, hi]: lo is the last write
// acknowledged before the read began, hi the last write issued when it
// ended.
func checkValue(key, v []byte, lo, hi uint64) error {
	if len(v) != valueSize || binary.BigEndian.Uint32(v[offCRC:]) != crc32.ChecksumIEEE(v[:offCRC]) {
		return fmt.Errorf("%s: %w", key, errCorrupt)
	}
	kl := int(binary.BigEndian.Uint16(v[offKeyLen:]))
	if offKey+kl > offCRC {
		return fmt.Errorf("%s: %w", key, errCorrupt)
	}
	if got := v[offKey : offKey+kl]; !bytes.Equal(got, key) {
		return fmt.Errorf("%s: %w (%s)", key, errWrongKey, got)
	}
	c := binary.BigEndian.Uint64(v)
	if c < lo {
		return fmt.Errorf("%s: %w (write %d, acknowledged %d)", key, errStale, c, lo)
	}
	if c > hi {
		return fmt.Errorf("%s: %w (write %d, issued %d)", key, errUnknown, c, hi)
	}
	return nil
}

// model is the benchmark's record of what each item should hold. Writes to
// one item are serialized by a striped lock, so write counters reach the
// store in counter order and the newest acknowledged counter is the lower
// bound any later read must meet.
type model struct {
	issued []atomic.Uint64
	acked  []atomic.Uint64
	locks  [256]sync.Mutex
}

func newModel(items int) *model {
	return &model{issued: make([]atomic.Uint64, items), acked: make([]atomic.Uint64, items)}
}

func (m *model) items() int { return len(m.acked) }

// put writes the next version of item i through put and records it as
// acknowledged once put returns without error.
func (m *model) put(i int, put func(k, v []byte) error) error {
	l := &m.locks[i%len(m.locks)]
	l.Lock()
	defer l.Unlock()
	key := keyOf(i)
	c := m.issued[i].Add(1)
	if err := put(key, encodeValue(key, c)); err != nil {
		return err
	}
	m.acked[i].Store(c)
	return nil
}

// check validates a read of item i that began when item i's acknowledged
// counter was lo. found reports whether the store returned a value.
func (m *model) check(i int, lo uint64, v []byte, found bool) error {
	if !found {
		if lo > 0 {
			return fmt.Errorf("%s: %w", keyOf(i), errMissing)
		}
		return nil
	}
	return checkValue(keyOf(i), v, lo, m.issued[i].Load())
}

// written lists the items with at least one acknowledged write, in key
// order.
func (m *model) written() []int {
	var out []int
	for i := range m.acked {
		if m.acked[i].Load() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// liveBytes is the user data the store should hold: key plus value bytes
// of every written item.
func (m *model) liveBytes() int64 {
	return int64(len(m.written())) * int64(16+valueSize)
}

// checkScan reads entries from next until len(expect) have been seen and
// checks them: each must be the expected item's key, in key order, holding
// a valid value no older than lo.
func (m *model) checkScan(expect []int, lo []uint64, next func() (k, v []byte, ok bool)) error {
	var prev []byte
	for j, i := range expect {
		k, v, ok := next()
		want := keyOf(i)
		switch {
		case !ok:
			return fmt.Errorf("%s: %w", want, errMissing)
		case prev != nil && bytes.Compare(k, prev) <= 0:
			return fmt.Errorf("%s after %s: %w", k, prev, errOrder)
		case bytes.Compare(k, want) < 0:
			return fmt.Errorf("%s: %w", k, errExtra)
		case bytes.Compare(k, want) > 0:
			return fmt.Errorf("%s: %w", want, errMissing)
		}
		if err := m.check(i, lo[j], v, true); err != nil {
			return err
		}
		prev = append(prev[:0], k...)
	}
	return nil
}
