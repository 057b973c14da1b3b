package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// artifactFingerprints pins every artifact's rendered bytes by FNV-64a
// hash. Every simulation behind them is seeded and deterministic, so a
// changed hash means a table or figure of the thesis reproduction moved:
// the engine, a policy, a generator or an aggregation changed behaviour.
// If an intentional model change moves one, update the value and record
// the change in CHANGES.md.
var artifactFingerprints = map[string]uint64{
	"table1":         0x6caa553bb910316c,
	"table5":         0xfc20f2a16c9e5269,
	"table7":         0x835d9e85248c9f97,
	"figure5":        0x36eaef42555a3d8a,
	"table8":         0x22689d9b5b65583e,
	"figure6":        0xce5ddb5335517554,
	"figure7":        0x03759e8d046814a5,
	"figure8a":       0x17ad02e4f25c0583,
	"table9":         0xb029954f925079b9,
	"figure8b":       0x9222508d29bcf732,
	"table10":        0x5f7d7a91371eca41,
	"figure9":        0x49473a189dd9c963,
	"figure10":       0x04a7dc0388d08941,
	"table11":        0x58bd506b0b31b982,
	"figure11":       0xaedd5a69d32f96cb,
	"table12":        0x66f83a8f46fffbeb,
	"figure12":       0x8cc219e80f707804,
	"table13":        0x64cf2deb8303799a,
	"table14":        0x624750d5f7d5caec,
	"table15":        0x56e261178475a1d4,
	"table16":        0x9403357bb55f50e1,
	"ext-policies":   0xf608acd3ee48d1ab,
	"ext-stream":     0xca00ce1ac83d6713,
	"ext-latency":    0x534aa79c875e81db,
	"ext-noise":      0x243b5068b36ec396,
	"ext-bounds":     0xc553f1e25f154d68,
	"ext-robustness": 0x43b2bc0b2b186407,
	"ext-robust-p99": 0x96fd1000321594c8,
	"ext-degrade":    0xca8425a2a0098be4,
}

func TestArtifactFingerprints(t *testing.T) {
	r := NewRunner(Config{})
	ids := append(IDs(), ExtIDs()...)
	if len(artifactFingerprints) != len(ids) {
		t.Errorf("%d fingerprints for %d artifacts", len(artifactFingerprints), len(ids))
	}
	for _, id := range ids {
		a, err := r.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := a.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		got := h.Sum64()
		want, ok := artifactFingerprints[id]
		if !ok {
			t.Errorf("%s: no recorded fingerprint (got %#016x)", id, got)
			continue
		}
		if got != want {
			t.Errorf("%s: fingerprint %#016x, want %#016x — rendered output drifted", id, got, want)
		}
	}
}
