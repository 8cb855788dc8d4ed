package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// digestNumbers feeds every number and bool reachable from v into h, floats
// by their bits, in field order. Strings (labels) are left out; any other
// kind panics, so a result that grows a map cannot slip past the digest.
func digestNumbers(h hash.Hash, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			digestNumbers(h, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestNumbers(h, v.Field(i))
		}
	case reflect.Slice:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Len()))
		h.Write(b[:])
		for i := 0; i < v.Len(); i++ {
			digestNumbers(h, v.Index(i))
		}
	case reflect.Float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		h.Write(b[:])
	case reflect.Int, reflect.Int64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
		h.Write(b[:])
	case reflect.Bool:
		if v.Bool() {
			b[0] = 1
		}
		h.Write(b[:1])
	case reflect.String: // a label
	default:
		panic("digestNumbers: no digest for a " + v.Kind().String())
	}
}

// TestStudyBitsGolden pins the float bits behind the five tables that
// cmd/experiments' TestPaperTablesGolden pins as rendered text: the text
// rounds to a decimal or two, so a change of a few ULPs (one capacity
// weight, a reassociated sum) passes it and fails here. A change that moves
// these bits on purpose records the new digests, and says why, in the same
// change that regenerates experiments_output.txt.
func TestStudyBitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five studies (a few seconds); skipped under -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests were recorded on amd64; on %s the float bits may differ until they stop depending on the CPU (ROADMAP item 19)", runtime.GOARCH)
	}
	for _, s := range []struct {
		name string
		run  func() (any, error)
		want string
	}{
		{"Figures 8-10", func() (any, error) { return Fig8to10() }, "521edef886120bf1"},
		{"Figure 11", func() (any, error) { return Fig11() }, "45a9bc64da7054a2"},
		{"Fault recovery", func() (any, error) { return FaultRecovery(16, 2, 10) }, "2f72072989227f55"},
		{"Degraded sensing", func() (any, error) { return SensorFaults(40, nil, 0) }, "7e09078c103cb916"},
		{"Migration cost", func() (any, error) { return Movement(16) }, "5b45f0eb0b49d1a7"},
	} {
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		h := sha256.New()
		digestNumbers(h, reflect.ValueOf(res))
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != s.want {
			t.Errorf("%s: digest %s, want %s", s.name, got, s.want)
		}
	}
}
