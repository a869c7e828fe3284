package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 42, Trials: 1, Quick: true} }

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E20" {
		t.Errorf("IDs order: %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", quickCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "long_column"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow(1, 2.34567)
	tbl.AddRow("xyz", 0.5)
	out := tbl.Render()
	for _, want := range []string{"T — demo", "paper claim: c", "long_column", "2.35", "xyz", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestConfigTrialsDefault(t *testing.T) {
	if (Config{}).trials() != 3 {
		t.Error("default trials")
	}
	if (Config{Trials: 7}).trials() != 7 {
		t.Error("explicit trials")
	}
}

// quickDigests pins the determinism contract: the SHA-256 of each
// table's Render()+CSV() at Seed 42, Trials 1, Quick. Any change to an
// E1-E20 table's bytes — a moved split label, a reordered draw, a new
// column — fails here. Regenerate only when the contract is versioned
// on purpose (ROADMAP item 9), never to make a refactor pass.
var quickDigests = map[string]string{
	"E1":  "211df50a8fa864d8f503d47883bda6ed462adc100dc7b7a5ed3b76dccc1faf5c",
	"E2":  "8204dac4869ed20c97b99b8f42ca755c29394e29fa4be3f9c444f6e796159345",
	"E3":  "4db069412e6b4782f8390a86419fd634d8c294ba8a36852fda24df0c4ebd7d39",
	"E4":  "973ebd4d04869ac206230ed01f0d9ddf70f58975c8beb14f9429f575941126a4",
	"E5":  "5d390512e0f151b64a39eb8f18170b8f3a3e7e2a52522da36fc2443f830ceada",
	"E6":  "f444a562ca52fe3fe5def65f172ec3b2e235b1ef9b051f1d5959e6c70158437b",
	"E7":  "76948ca4609f70594fe09ffeaf94f88062acc779a44d3b5ea7a4c78d5cc9cdc0",
	"E8":  "1dbac3bdd8c973e914c3ff3282787a98b1ac98f8dc2b53d09d3c690a2a575708",
	"E9":  "541e27f5d93174095c21cc4e19f8ba6846dc965f871892db61d6f16f42c7e637",
	"E10": "f9a1b9b077a8e87ca88b177e882135468570b54ecb6e8a92c4bf19c7f8081af8",
	"E11": "b426f53f437f20ecca716c8fd50db402a8d2a15b272e7cf03edd1ad4e4e37059",
	"E12": "e6a163274ad57ea6d4ceb69e44f61655ec41be17bb47e2d901ee71761cffdbc3",
	"E13": "7e0ecbbfdfbaf7094ab4f2ab288df956d313bd515f8a1133acf354dfa65a1999",
	"E14": "8d0c33981d5bdeab8991f4b82e57f0da8a2b57c7488bf9e20723c909bb784c11",
	"E15": "73f3fa2042d10b00fb13fe1b27fdf96a16e3ae34f0aed031f3b5c35d32e90839",
	"E16": "3e0851e26a363d7a0aab135c57d0cc31d2b1b7d3eb503220fb809eec85a81e31",
	"E17": "4301618eebddac05166480b80e9b2596a60bb2efe414ac915477b05f168e2a4f",
	"E18": "ba7076ab71900eda2f75bc095cb1d36c0e728e2d1e42284655088f7bad06bf72",
	"E19": "bf181b0944675fd2147b3d667c521fa90b9c7e40ec1662f2bbe4f5ebb4791a62",
	"E20": "21887d5e9050a7d91ab4dc6ffe431a24aa27aa39371580935752ab270badc987",
}

// Every experiment must run to completion in quick mode and produce a
// well-formed table whose bytes match the pinned digest. These are the
// integration smoke tests of the whole reproduction pipeline.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if tbl.ID != id {
				t.Errorf("table ID %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s row width %d != %d columns", id, len(row), len(tbl.Columns))
				}
			}
			if tbl.Render() == "" {
				t.Error("empty render")
			}
			sum := sha256.Sum256([]byte(tbl.Render() + tbl.CSV()))
			if got := hex.EncodeToString(sum[:]); got != quickDigests[id] {
				t.Errorf("%s table digest %s, want %s", id, got, quickDigests[id])
			}
		})
	}
}

func TestByzCountHelper(t *testing.T) {
	if byzCount(256, 0.45) != 12 {
		t.Errorf("byzCount(256,0.45) = %d", byzCount(256, 0.45))
	}
	if byzCount(2, 2) != 1 { // clamped below n
		t.Errorf("clamp failed: %d", byzCount(2, 2))
	}
	if byzCount(10, -1) != 0 {
		t.Errorf("floor failed: %d", byzCount(10, -1))
	}
}

func TestFarMask(t *testing.T) {
	// Build via the E2 helper on a tiny graph.
	tbl, err := E2(Config{Seed: 1, Trials: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("E2 rows = %d", len(tbl.Rows))
	}
}
