package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"ocas/internal/interp"
	"ocas/internal/ocal"
	"ocas/internal/plan"
)

// bagDigest is an order-independent digest of a row bag: each row (its
// length, then its values, as little-endian uint32s) is hashed with
// SHA-256 and the hashes are summed modulo 2^256. It is written here from
// that definition, independently of the executor's own implementation.
type bagDigest struct {
	acc [sha256.Size]byte
	buf []byte
}

func (d *bagDigest) add(row []int32) {
	d.buf = binary.LittleEndian.AppendUint32(d.buf[:0], uint32(len(row)))
	for _, v := range row {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(v))
	}
	h := sha256.Sum256(d.buf)
	var carry uint16
	for i := sha256.Size - 1; i >= 0; i-- {
		s := uint16(d.acc[i]) + uint16(h[i]) + carry
		d.acc[i] = byte(s)
		carry = s >> 8
	}
}

func (d *bagDigest) hex() string { return hex.EncodeToString(d.acc[:]) }

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// generated returns the rows the executor generates for input number idx
// (in sorted-name order) of arity ar at n rows under the request seed.
func generated(ar int, n, seed int64, idx int) []int32 {
	s := seed + int64(idx)*7919
	if ar == 1 {
		return plan.GeneratedInts(n, s)
	}
	return plan.GeneratedPairs(n, s)
}

// oracleDigest evaluates the corpus entry's specification with the
// reference interpreter on the generated inputs of an execution at rows
// (per input) and seed, and digests the result the way /execute reports
// it: a row bag, or the printed value of a scalar result.
func oracleDigest(e *entry, rows map[string]int64, seed int64, scalar bool) (string, error) {
	prog, err := ocal.ParseFile(e.Req.Program)
	if err != nil {
		return "", err
	}
	vals := map[string]ocal.Value{}
	for i, name := range inputNames(e.Req) {
		ar := e.Req.Inputs[name].Arity
		if ar == 0 {
			ar = 2
		}
		flat := generated(ar, rows[name], seed, i)
		l := make(ocal.List, len(flat)/ar)
		for r := range l {
			if ar == 1 {
				l[r] = ocal.Int(flat[r])
				continue
			}
			t := make(ocal.Tuple, ar)
			for j := range t {
				t[j] = ocal.Int(flat[r*ar+j])
			}
			l[r] = t
		}
		vals[name] = l
	}
	v, err := interp.Eval(prog, vals, nil)
	if err != nil {
		return "", fmt.Errorf("interp: %w", err)
	}
	if scalar {
		return digestString(v.String()), nil
	}
	l, ok := v.(ocal.List)
	if !ok {
		return "", fmt.Errorf("specification evaluated to %T, not a list", v)
	}
	var d bagDigest
	for _, x := range l {
		row, err := flatten(x, nil)
		if err != nil {
			return "", err
		}
		d.add(row)
	}
	return d.hex(), nil
}

func flatten(v ocal.Value, dst []int32) ([]int32, error) {
	switch x := v.(type) {
	case ocal.Int:
		return append(dst, int32(x)), nil
	case ocal.Tuple:
		for _, e := range x {
			var err error
			if dst, err = flatten(e, dst); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	return nil, fmt.Errorf("cannot flatten %T into a row", v)
}
