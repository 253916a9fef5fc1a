// Package checksum is the module's one CRC-64: a drop-in for hash/crc64
// that every footer, WAL frame, journal and ledger line goes through, and
// the one definition of a release artifact's fingerprint. Its results are
// hash/crc64's, bit for bit; only the speed on large buffers differs.
//
// On amd64 with PCLMULQDQ, a carry-less-multiply kernel (the folding of
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel, 2009) reduces each buffer's 64-byte
// blocks to one 128-bit residue with the same remainder modulo the
// polynomial; hash/crc64's table then finishes that residue and the
// shorter tail. Everywhere else, and for buffers shorter than one block,
// Update is hash/crc64.Update. Combine joins the CRCs of two adjacent
// buffers, so one buffer can be checksummed in parts on several cores.
package checksum

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc64"
	"strconv"
)

// Table is a CRC-64 polynomial's lookup table together with the kernel's
// fold constants for that polynomial.
type Table struct {
	tab  *crc64.Table
	poly uint64 // reversed notation, as MakeTable took it
	// fold holds x^575, x^511, x^191 and x^127 mod P in the reflected bit
	// order: the first pair folds a 128-bit lane forward 512 bits (four
	// lanes of 64-byte blocks), the second folds one lane into the next.
	fold [4]uint64
}

// ECMA (ECMA-182) is the polynomial of every self-checksum: v3 footers,
// WAL frames, journal, ledger and manifest lines.
var ECMA = MakeTable(crc64.ECMA)

// Fingerprint is the table of a release artifact's identity: CRC-64/ISO
// over every byte of the file, written as 16 hex digits
// (FormatFingerprint). The ingest journal and audit, the serving
// registry's load paths, rollout manifests and psdtool all take it with
// this table, so the same bytes get the same fingerprint whichever path
// reads them.
//
// The polynomial deliberately differs from the CRC-64/ECMA a v3 artifact
// embeds in its own footer: a CRC taken over a message that ends with that
// message's own CRC (same polynomial) collapses to a fixed residue
// constant, the same for EVERY valid artifact, so it cannot tell two
// releases apart. Under a distinct polynomial the fingerprint is a real
// function of the bytes.
var Fingerprint = MakeTable(crc64.ISO)

// MakeTable returns the Table for poly, given in hash/crc64's reversed
// notation (crc64.ECMA, crc64.ISO).
func MakeTable(poly uint64) *Table {
	t := &Table{tab: crc64.MakeTable(poly), poly: poly}
	for i, n := range [4]int{575, 511, 191, 127} {
		t.fold[i] = xPowMod(n, poly)
	}
	return t
}

// xPowMod returns x^n mod P, P being the degree-64 polynomial whose
// lower terms poly holds reversed: bit 63-i of the result is the
// coefficient of x^i. Multiplying by x is a right shift, and a term
// shifted out past x^63 is reduced by poly, exactly as in table
// construction.
func xPowMod(n int, poly uint64) uint64 {
	v := uint64(1) << 63 // x^0
	for ; n > 0; n-- {
		if v&1 != 0 {
			v = v>>1 ^ poly
		} else {
			v >>= 1
		}
	}
	return v
}

// mulMod returns a·b mod P in xPowMod's reflected notation: the terms of
// a, from x^0 (bit 63) up, select the multiples b·x^i, which b steps
// through one right shift (one multiplication by x) at a time.
func mulMod(a, b, poly uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ poly
		} else {
			b >>= 1
		}
	}
	return p
}

// Combine returns the CRC of the concatenation A‖B given crcA, the CRC of
// A, and crcB, the CRC of B, both taken from a zero initial CRC (as
// Checksum takes them), and lenB, the length of B in bytes. Feeding B's
// bytes to a CRC register multiplies what it held by x^(8·lenB) modulo P
// and adds a term that depends on B alone; the register's pre- and
// post-inversion cancel out of that sum, so the CRC of A‖B is
// crcA·x^(8·lenB) mod P xor crcB. The power is taken by square-and-
// multiply, so the cost is logarithmic in lenB and nothing is allocated:
// two halves of a buffer can be checksummed on two cores and joined.
func Combine(crcA, crcB uint64, lenB int64, tab *Table) uint64 {
	shift := uint64(1) << 63 // x^0
	for sq := xPowMod(8, tab.poly); lenB > 0; lenB >>= 1 {
		if lenB&1 != 0 {
			shift = mulMod(shift, sq, tab.poly)
		}
		sq = mulMod(sq, sq, tab.poly)
	}
	return mulMod(crcA, shift, tab.poly) ^ crcB
}

// kernelBlock is the kernel's unit: four 16-byte lanes.
const kernelBlock = 64

// Update returns the result of adding the bytes in p to crc, as
// crc64.Update does.
func Update(crc uint64, tab *Table, p []byte) uint64 {
	if useKernel && len(p) >= kernelBlock {
		n := len(p) &^ (kernelBlock - 1)
		r0, r1 := foldCLMUL(^crc, &tab.fold, p[:n])
		// The residue, as a 16-byte message read from a zero register, has
		// the remainder p[:n] has read from crc: finishing it through the
		// table (^0 is the zero register in crc64.Update's inverted
		// convention) yields the CRC of p[:n].
		var res [16]byte
		binary.LittleEndian.PutUint64(res[0:], r0)
		binary.LittleEndian.PutUint64(res[8:], r1)
		crc, p = crc64.Update(^uint64(0), tab.tab, res[:]), p[n:]
	}
	return crc64.Update(crc, tab.tab, p)
}

// Checksum returns the CRC-64 of data under tab.
func Checksum(data []byte, tab *Table) uint64 { return Update(0, tab, data) }

// New returns a hash.Hash64 computing the CRC-64 under tab. Its Sum
// appends the big-endian checksum, as hash/crc64's does.
func New(tab *Table) hash.Hash64 { return &digest{tab: tab} }

type digest struct {
	crc uint64
	tab *Table
}

func (d *digest) Size() int      { return crc64.Size }
func (d *digest) BlockSize() int { return 1 }
func (d *digest) Reset()         { d.crc = 0 }
func (d *digest) Sum64() uint64  { return d.crc }

func (d *digest) Write(p []byte) (int, error) {
	d.crc = Update(d.crc, d.tab, p)
	return len(p), nil
}

func (d *digest) Sum(in []byte) []byte { return binary.BigEndian.AppendUint64(in, d.crc) }

// FormatFingerprint writes a fingerprint as 16 lowercase hex digits.
func FormatFingerprint(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFingerprint reads exactly 16 hex digits, in either case.
func ParseFingerprint(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil || len(s) != 16 {
		return 0, fmt.Errorf("fingerprint %q is not 16 hex digits", s)
	}
	return fp, nil
}
