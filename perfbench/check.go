package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
)

// Keys are "k" plus eight decimal digits, so string order is index order
// and a scan's expected contents follow from its start index. Values are
// valueBytes long: the key, '|', a 16-hex-digit batch stamp, '|', filler.
// Every value therefore names the key it was written for, and every entry
// written by one batch carries that batch's stamp.
const (
	keyDigits  = 8
	keyBytes   = 1 + keyDigits
	valueBytes = 100
	stampAt    = keyBytes + 1
	stampBytes = 16
)

func keyName(i int) string {
	var b [keyBytes]byte
	b[0] = 'k'
	for j := keyBytes - 1; j > 0; j-- {
		b[j] = byte('0' + i%10)
		i /= 10
	}
	return string(b[:])
}

// keyIndex parses a key made by keyName; ok is false for anything else.
func keyIndex(k string) (int, bool) {
	if len(k) != keyBytes || k[0] != 'k' {
		return 0, false
	}
	n := 0
	for j := 1; j < keyBytes; j++ {
		c := k[j]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// makeKeys builds the key table once, so the load loops never format one.
func makeKeys(n int) []string {
	keys := make([]string, n+1) // keys[n] bounds scans that end at the last key
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

// newValueBuf returns a value buffer with its separators and filler set;
// fillValue then only rewrites the key and the stamp.
func newValueBuf() []byte {
	v := make([]byte, valueBytes)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	v[keyBytes] = '|'
	v[stampAt+stampBytes] = '|'
	return v
}

const hexDigits = "0123456789abcdef"

// fillValue writes key and stamp into a buffer from newValueBuf.
func fillValue(v []byte, key string, stamp uint64) {
	copy(v, key)
	for j := stampAt + stampBytes - 1; j >= stampAt; j-- {
		v[j] = hexDigits[stamp&15]
		stamp >>= 4
	}
}

// valueFor reports whether v is a well-formed value written for key.
func valueFor(key string, v []byte) bool {
	return len(v) == valueBytes && string(v[:keyBytes]) == key &&
		v[keyBytes] == '|' && v[stampAt+stampBytes] == '|'
}

// scanCheck verifies a scan's entries as they stream by. The benchmark's
// key set never changes after the prefill (updates only overwrite), so a
// scan over indices [lo, hi) must return exactly those keys in order,
// each with a value written for it. With group > 0 it also checks batch
// atomicity: every update writes whole aligned groups of that many keys
// in one batch, so all entries of a group in one snapshot must carry the
// same stamp; two stamps in a group are a torn batch.
type scanCheck struct {
	lo, hi, group int
	next          int
	grp           int
	stamp         [stampBytes]byte
	err           error
}

func (c *scanCheck) reset(lo, hi, group int) {
	c.lo, c.hi, c.group = lo, hi, group
	c.next = lo
	c.grp = -1
	c.err = nil
}

// add checks one entry; it returns false once the scan has failed.
func (c *scanCheck) add(key string, val []byte) bool {
	if c.err != nil {
		return false
	}
	idx, ok := keyIndex(key)
	switch {
	case !ok:
		c.err = fmt.Errorf("scan [%d,%d): foreign key %q", c.lo, c.hi, key)
	case idx != c.next:
		c.err = fmt.Errorf("scan [%d,%d): got key %d, want %d (unsorted, out of range or missing)", c.lo, c.hi, idx, c.next)
	case !valueFor(key, val):
		c.err = fmt.Errorf("scan: value of %s does not encode its key: %q", key, val)
	case c.group > 0 && idx/c.group == c.grp && !bytes.Equal(val[stampAt:stampAt+stampBytes], c.stamp[:]):
		c.err = fmt.Errorf("torn batch: group %d holds stamps %s and %s", c.grp, c.stamp[:], val[stampAt:stampAt+stampBytes])
	}
	if c.err != nil {
		return false
	}
	if c.group > 0 && idx/c.group != c.grp {
		c.grp = idx / c.group
		copy(c.stamp[:], val[stampAt:])
	}
	c.next++
	return true
}

// finish reports the first violation, or a scan that stopped short.
func (c *scanCheck) finish() error {
	if c.err == nil && c.next != c.hi {
		c.err = fmt.Errorf("scan [%d,%d): ended at %d", c.lo, c.hi, c.next)
	}
	return c.err
}

// digest summarizes a full scan: entry count and a hash over every key
// and value in order. Two stores with equal digests hold the same data.
type digest struct {
	n   int
	sum uint64
}

func fullDigest(all func(fn func(key string, val []byte) bool)) digest {
	h := fnv.New64a()
	n := 0
	all(func(k string, v []byte) bool {
		h.Write([]byte(k))
		h.Write(v)
		n++
		return true
	})
	return digest{n: n, sum: h.Sum64()}
}

// violations collects correctness failures from every goroutine. The run
// reports the first few and fails when there is any.
type violations struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (v *violations) add(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.msgs) < 10 {
		v.msgs = append(v.msgs, err.Error())
	}
}
