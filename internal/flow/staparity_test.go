package flow

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// staBitsSHA256 pins the flow's sta reports at the default wire model,
// per circuit/technology: values recorded before the incremental half
// of the timing engine was retired. The one-shot engine kept the
// arithmetic, so every reported bit must stay identical.
var staBitsSHA256 = map[string]string{
	"fulladder/cmos":  "5d15b202f2555ff364400a39fc835c19d83c354e90343247449e2a456ce458c2",
	"fulladder/cnfet": "ba0019286359b9e2d39fe89d5859022ff0d7fdd65c53e0e5c0ce8d46b5f4bd65",
	"mult4/cmos":      "4737faba44948d51d0fe61059676f5d2b1e356a902dc80b5a21976769aa1a8fd",
	"mult4/cnfet":     "bb3da3246e4ffe952883ed8956fd7e7fd8c2cb4b13e1344b521feff648952f7f",
	"rca16/cmos":      "773b85df6ad92d45cde36c1da507542d298bf34549b45e9b51e2fd2813c2f53e",
	"rca16/cnfet":     "4882a30e87c30d95c57fad9b97b20cb185b9f5a319e088638e4b6faf7396318e",
	"mult8/cmos":      "c95d2c8947e9157d38f709226f601edbbe2e0f1258b2a3299ac7c4f60c27c9fe",
	"mult8/cnfet":     "360bc2959f34d41c9cf7ec1e144df2e8224c6651cdf135cbc8aaf552d7e644f1",
}

// staDigest hashes the bits of an STA report: DelayS, then every
// InstanceDelay in its (sorted instance) order, then WorstNet,
// CriticalPath, Levels and Instances.
func staDigest(s *STAReport) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(math.Float64bits(s.DelayS))
	for _, d := range s.InstanceDelay {
		h.Write([]byte(d.Name))
		put(math.Float64bits(d.DelayS))
	}
	h.Write([]byte(s.WorstNet))
	for _, n := range s.CriticalPath {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	put(uint64(s.Levels))
	put(uint64(s.Instances))
	return hex.EncodeToString(h.Sum(nil))
}

// TestSTAReportBitsParity pins the sta report of fulladder, mult4,
// rca16 and mult8 on both technologies bit for bit.
func TestSTAReportBitsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the mult8 cells")
	}
	k := kit(t)
	for _, name := range []string{"fulladder", "mult4", "rca16", "mult8"} {
		res, err := k.Run(context.Background(), Request{Circuit: name, Analyses: []Analysis{AnalysisSTA}})
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range []string{"cmos", "cnfet"} {
			key := name + "/" + tech
			if got, want := staDigest(res.Techs[tech].STA), staBitsSHA256[key]; got != want {
				t.Errorf("%s sta bits sha256 %s, want %s", key, got, want)
			}
		}
	}
}
