package wal

import (
	"bytes"
	"testing"
)

// fuzzStream builds a valid log stream for seeding.
func fuzzStream(payloads ...[]byte) []byte {
	out := []byte(logMagic)
	for i, p := range payloads {
		out = append(out, encodeRecord(uint64(i+1), p)...)
	}
	return out
}

// FuzzWALDecode feeds arbitrary byte streams — truncated, bit-flipped,
// garbage — to the record decoder. It must never panic, and its verdict
// must keep clean truncation (a torn tail, recoverable) strictly apart
// from corruption (damage, refuse to serve).
func FuzzWALDecode(f *testing.F) {
	valid := fuzzStream([]byte("submit{user:1}"), []byte("advance{to:7200}"), nil)
	f.Add(valid)                                     // pristine stream
	f.Add(valid[:len(valid)-3])                      // torn final record
	f.Add(valid[:len(logMagic)+5])                   // torn first header
	f.Add(valid[:len(logMagic)])                     // header only
	f.Add([]byte{})                                  // empty file
	f.Add([]byte("VSPWAL1\nnot a real record here")) // garbage after magic
	f.Add([]byte("VSPSNAP1"))                        // foreign magic
	f.Add(bytes.Repeat([]byte{0xff}, 64))            // all-ones noise
	flipped := append([]byte(nil), valid...)
	flipped[len(logMagic)+recordHeaderSize+2] ^= 0x01
	f.Add(flipped) // bit flip in a payload

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, tail, err := DecodeAll(data)

		// Corruption and error must coincide exactly.
		if (tail == TailCorrupt) != (err != nil) {
			t.Fatalf("tail %v with err %v", tail, err)
		}
		// Decoded records must be reconstructible: re-encoding them must
		// reproduce a prefix of the input.
		enc := []byte(nil)
		if len(data) > 0 {
			enc = append(enc, logMagic...)
		}
		for _, r := range recs {
			enc = append(enc, encodeRecord(r.Seq, r.Payload)...)
		}
		if len(recs) > 0 && !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded records do not re-encode to an input prefix")
		}

		// Any prefix of a stream that decoded cleanly must itself decode
		// without being read as corruption: cutting a valid log at an
		// arbitrary byte is a crash, never damage.
		if tail == TailClean && len(data) > 0 {
			for _, cut := range []int{1, len(data) / 3, len(data) / 2, len(data) - 1} {
				if cut <= 0 || cut >= len(data) {
					continue
				}
				precs, ptail, perr := DecodeAll(data[:cut])
				if ptail == TailCorrupt {
					t.Fatalf("prefix cut=%d of a clean stream read as corrupt: %v", cut, perr)
				}
				if len(precs) > len(recs) {
					t.Fatalf("prefix decoded more records than the whole")
				}
			}
		}
	})
}
