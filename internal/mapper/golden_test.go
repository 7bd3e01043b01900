package mapper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/gen"
)

// goldenMapDigests pins Map's complete output for every benchmark on every
// IBM baseline it fits, under DefaultOptions: a SHA-256 over GateCount,
// Swaps, Initial, Final and every gate of Mapped (see mapDigest). Any
// change to the router's decisions, to the refinement schedule or to the
// emitted circuit shows up here.
var goldenMapDigests = map[string]string{
	"qft_16@ibm-16q-2x8-2bus":         "cc10a32fa29ab791fa81e5d65200b5724e20a59cadb6f0f1709fc993617dc3fe", // gates 830, swaps 66
	"qft_16@ibm-16q-2x8-4bus":         "5a0824765600c2d4ead0f98d1f95624b14896f9630386da5e396082a7010c796", // gates 791, swaps 53
	"qft_16@ibm-20q-4x5-2bus":         "0f0fecc4dc1c3cd24ae38af03249fae4ac0be74b13e71779ab65a238c354f3f5", // gates 848, swaps 72
	"qft_16@ibm-20q-4x5-4bus":         "1da4254b5f77bbd744335b75302bc8783ec000a9c866f207a0ca59284d650fcb", // gates 800, swaps 56
	"adr4_197@ibm-16q-2x8-2bus":       "c58580cb4eac8dd79631b9f462c642517cd52cce909cca20d123d83aaea59958", // gates 326, swaps 29
	"adr4_197@ibm-16q-2x8-4bus":       "9406cda5a9a57ca9ea58cb57a428defcc75fa02086929f8925ff1063e7a77d74", // gates 296, swaps 19
	"adr4_197@ibm-20q-4x5-2bus":       "8b6956b550f812a1106ea1f7b1c7223e1aeec6df9b902d3e38ba6b5760f42e5a", // gates 323, swaps 28
	"adr4_197@ibm-20q-4x5-4bus":       "bc32bdf125a8a01ee5cd24510061cb63bd68d48586d0e00c6128cc21ec769588", // gates 290, swaps 17
	"rd84_142@ibm-16q-2x8-2bus":       "aeecfd3d632f029623074e5d2aa5b1235d6ac19464f6d067c885a775f3a4aa2c", // gates 2495, swaps 304
	"rd84_142@ibm-16q-2x8-4bus":       "17b286c71e450c539701dd5265b41ba6a004934b7799cbace88d2e6516af1288", // gates 2087, swaps 168
	"rd84_142@ibm-20q-4x5-2bus":       "beba306f98471f25f3d30715c8fe6a894a4f7895b411aec63643cd199edf8e9b", // gates 2399, swaps 272
	"rd84_142@ibm-20q-4x5-4bus":       "9d38f6052b1366fafbf8351debd355ba69fd79542e1601e2b114ffce8b58d6cd", // gates 1940, swaps 119
	"misex1_241@ibm-16q-2x8-2bus":     "064df680bb319803ada99bd541a4e87c737e5054da78530d1c7e594a6ce41812", // gates 3108, swaps 369
	"misex1_241@ibm-16q-2x8-4bus":     "1c4c0acde20478a310322affda76a7974a478545a55956844eda544f8dc85950", // gates 2790, swaps 263
	"misex1_241@ibm-20q-4x5-2bus":     "6d15931bd3439510adb95e17f5284ce65f4f7de47854383c471626d99a07132c", // gates 2979, swaps 326
	"misex1_241@ibm-20q-4x5-4bus":     "d14f2f77a48b9e652f794909d5445684674e691ec45a018496be0713e3a50630", // gates 2553, swaps 184
	"square_root_7@ibm-16q-2x8-2bus":  "dbf78f4ca4288a6215f72fb351510500cafe0f03fbeb18a3952d67c3bb3f5803", // gates 5779, swaps 668
	"square_root_7@ibm-16q-2x8-4bus":  "82ca7100a9be112af3ad6590602b0b0834afb5db991a9507f0ca847e96acf9be", // gates 5269, swaps 498
	"square_root_7@ibm-20q-4x5-2bus":  "37884cc4af144643549cb6dd0742d246751afbaa993ee4c308c03d03a349040e", // gates 5689, swaps 638
	"square_root_7@ibm-20q-4x5-4bus":  "085c3b638a5aa0022f447d32213bd75faf353a77e62099625cd47a7d42f5bb27", // gates 4717, swaps 314
	"radd_250@ibm-16q-2x8-2bus":       "ebaf49c9bf366a3cce4a673c78a1b1886ad8fd88a819be25705df59f3f82091c", // gates 292, swaps 25
	"radd_250@ibm-16q-2x8-4bus":       "235fd1fcb1976472075067401d8d2f16b6c9442a82fea228eb31851c102f2cac", // gates 277, swaps 20
	"radd_250@ibm-20q-4x5-2bus":       "61005c4245decd6d9cc5bca24f80982484fbb607022ffa6610364e45ade90764", // gates 295, swaps 26
	"radd_250@ibm-20q-4x5-4bus":       "27d1c073c5f8b53234c7283ae8e03d269f1efcf5deb7adee319bc0274599f588", // gates 247, swaps 10
	"cm152a_212@ibm-16q-2x8-2bus":     "de78808b345b61607f0824fec3fcf37349fe9fc9579ed003ebb174d1e0dfbd2a", // gates 1425, swaps 143
	"cm152a_212@ibm-16q-2x8-4bus":     "bff54f7a1d3f0e411c6930c43fe7470a2b2961f383f55d18582953e746fee7ff", // gates 1335, swaps 113
	"cm152a_212@ibm-20q-4x5-2bus":     "86be0f5e1f50226d17ed232d78fd2265a668eaf75dba10170c3ff51cd1104e81", // gates 1437, swaps 147
	"cm152a_212@ibm-20q-4x5-4bus":     "be7ae763e6c0f1a46f74dc7cbc088668fa01f51d0d6e841fc8380fd74ad38fd9", // gates 1263, swaps 89
	"dc1_220@ibm-16q-2x8-2bus":        "6d8e6edb15eb674392e260868d1f173caa1c7af6737ccbdebad33db97b8b7639", // gates 679, swaps 78
	"dc1_220@ibm-16q-2x8-4bus":        "ba49419ed8e92fecef2009b09a0f1b83daa0ec135f3dbd77ce4680dbbe79b4d1", // gates 574, swaps 43
	"dc1_220@ibm-20q-4x5-2bus":        "93f5e496d3ae5f67b890957a3fcb269a7f819952b41ab166c2e0f93d66a7f2f9", // gates 655, swaps 70
	"dc1_220@ibm-20q-4x5-4bus":        "5a4354f4c76c85f6ea8ba6074719876521997d997115bb12cc4a4e94f397ee77", // gates 589, swaps 48
	"z4_268@ibm-16q-2x8-2bus":         "75f182057ad29c21c129743e458afc4e8755885a9189dda5fbe360d4c36d926b", // gates 244, swaps 21
	"z4_268@ibm-16q-2x8-4bus":         "8614597f14050a70f884f4fe656a4e901d5c58b4755a9a4dc2f62f699408f4b7", // gates 220, swaps 13
	"z4_268@ibm-20q-4x5-2bus":         "e068c8275c766a966fccd904e26760a71fbda81f49bcd6f8c2e1d9a2daab0bfb", // gates 238, swaps 19
	"z4_268@ibm-20q-4x5-4bus":         "ae1ee4433f80b50f073954d335985c7dfc86099182edb3dc1cff371d94f1d477", // gates 217, swaps 12
	"sym6_145@ibm-16q-2x8-2bus":       "fea0f20ae9e5d6e30ab13e72c27fab04f868f0600b7815c920f3652f3d14d99d", // gates 322, swaps 30
	"sym6_145@ibm-16q-2x8-4bus":       "d06ee32f02ee8d741628abe0690415bc5dcc79dfbebfe932f94736bd7d481ce0", // gates 280, swaps 16
	"sym6_145@ibm-20q-4x5-2bus":       "d69874c60b6c0f89f90722f57b4ccb28e855af555f0dc11815474b5830fbd561", // gates 298, swaps 22
	"sym6_145@ibm-20q-4x5-4bus":       "b1ed8f67a09d665705ecdc203bb9e7c463a9581f3d0caf3394ba9c5d50fa90cb", // gates 265, swaps 11
	"UCCSD_ansatz_8@ibm-16q-2x8-2bus": "dca9c739d7a5b9d3a5060aca03f9850558022c93bacbfbf8e990aed40ceb7507", // gates 7385, swaps 155
	"UCCSD_ansatz_8@ibm-16q-2x8-4bus": "82ec407ad46bab9e317f5522350371e32acd5a33ddf7198ef2c24b381869d80d", // gates 7277, swaps 119
	"UCCSD_ansatz_8@ibm-20q-4x5-2bus": "249d35e5e05fc2ef4d09a895f0d59a89f9311d03d43d6e3d023723ea567774f1", // gates 7349, swaps 143
	"UCCSD_ansatz_8@ibm-20q-4x5-4bus": "7c3048191a29063e2955757f24a0eb51c70219e1b78f1c02d29ba2ef87cbc87c", // gates 7208, swaps 96
	"ising_model_16@ibm-16q-2x8-2bus": "7816d97d57ef873ff1ff222d6254122b7b5cb799b998653928b9bb5c02c1dde2", // gates 642, swaps 0
	"ising_model_16@ibm-16q-2x8-4bus": "fbc36fc7d6f9b9cfb9fe1b5b33237c079b473fe2d094188472ae420df9e199ae", // gates 642, swaps 0
	"ising_model_16@ibm-20q-4x5-2bus": "1237ef362728ca31df913799a693b6e351508809f60c70b1e2aa880b8743f23d", // gates 642, swaps 0
	"ising_model_16@ibm-20q-4x5-4bus": "1237ef362728ca31df913799a693b6e351508809f60c70b1e2aa880b8743f23d", // gates 642, swaps 0
}

// mapDigest hashes the parts of r that callers observe.
func mapDigest(r *Result) string {
	h := sha256.New()
	putInt := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	putInts := func(vs []int) {
		putInt(len(vs))
		for _, v := range vs {
			putInt(v)
		}
	}
	putInt(r.GateCount)
	putInt(r.Swaps)
	putInts(r.Initial)
	putInts(r.Final)
	putInt(r.Mapped.Qubits)
	putInt(len(r.Mapped.Gates))
	for _, g := range r.Mapped.Gates {
		putInt(int(g.Kind))
		putInt(len(g.Name))
		h.Write([]byte(g.Name))
		putInts(g.Qubits)
		putInt(len(g.Params))
		for _, p := range g.Params {
			putInt(int(math.Float64bits(p)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares res against the digest pinned under key.
func checkDigest(t *testing.T, pinned map[string]string, key string, res *Result) {
	t.Helper()
	got := mapDigest(res)
	want, ok := pinned[key]
	switch {
	case !ok:
		t.Errorf("%s: no pinned digest (got %q, gates %d, swaps %d)", key, got, res.GateCount, res.Swaps)
	case got != want:
		t.Errorf("%s: digest %s, want %s (gates %d, swaps %d)", key, got, want, res.GateCount, res.Swaps)
	}
}

func TestMapGoldenDigests(t *testing.T) {
	opt := DefaultOptions()
	seen := 0
	for _, name := range gen.Names() {
		bench, err := gen.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := bench.Build()
		for _, b := range arch.Baselines() {
			a := arch.NewBaseline(b)
			if c.Qubits > a.NumQubits() {
				continue
			}
			key := name + "@" + b.String()
			res, err := Map(c, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			seen++
			checkDigest(t, goldenMapDigests, key, res)
		}
	}
	if seen != len(goldenMapDigests) {
		t.Errorf("mapped %d (benchmark, baseline) pairs, %d pinned", seen, len(goldenMapDigests))
	}
}

// goldenOptionDigests pins Map under non-default options, so the corners of
// the routing loop (no look-ahead, a short look-ahead window, no
// refinement, heavy decay, the oscillation fallback) stay bit-identical
// too.
var goldenOptionDigests = map[string]string{
	"rd84_142/no-lookahead":      "7b7cd3ece746daa6dc88fd47942fb5a6d4161bded542f7d8c2b565de4a8b5ccf", // gates 2237, swaps 218
	"rd84_142/short-lookahead":   "e8507521a35736986f639a5fa51b110f2af3fd9ffa27dbc1efd53ef7980b60af", // gates 1907, swaps 108
	"rd84_142/no-refinement":     "24d0c1423deec8de024b5be1aafd5044167d5dec389854e43f0e5cefd25e1687", // gates 2093, swaps 170
	"rd84_142/heavy-decay":       "ee72255f7da473aa7fa87572857e02f564c2a413946dd4db60079578d8eab3dc", // gates 2039, swaps 152
	"rd84_142/oscillating":       "c6e6f4302b42bc05fef346ab0682b39819dbca2e4b93a06f9ee73d9b0b59170d", // gates 4847, swaps 1088
	"cm152a_212/no-lookahead":    "8b223af2ff00676591c173ed85b829275247e8aaba078c84ed0e5e692bd5afef", // gates 1251, swaps 85
	"cm152a_212/short-lookahead": "a9cd996ffe5adf969073eda87ce5b01fe02bc523619a504f6952df2d51315819", // gates 1218, swaps 74
	"cm152a_212/no-refinement":   "9bc2ba48bb766403298aeea6fdb527efb0456f32c19cb2c8cbdf7c7d40472ec7", // gates 1185, swaps 63
	"cm152a_212/heavy-decay":     "5b68c7cf4e55b47951e6b4d218592eb61c26d66e1f008d7c286fd353b72d0c34", // gates 1092, swaps 32
	"cm152a_212/oscillating":     "a9b65c85cb3970f35a23d9d7e0b9f7d748d21efcec10f2ecde52923188f2deba", // gates 1851, swaps 285
}

func TestMapGoldenOptionDigests(t *testing.T) {
	variants := []struct {
		name string
		edit func(*Options)
	}{
		{"no-lookahead", func(o *Options) { o.ExtendedSize = 0 }},
		{"short-lookahead", func(o *Options) { o.ExtendedSize = 3 }},
		{"no-refinement", func(o *Options) { o.Iterations = 0 }},
		{"heavy-decay", func(o *Options) { o.DecayDelta, o.DecayReset = 0.5, 2 }},
		// A look-ahead that outweighs the front, with no decay, makes the
		// heuristic oscillate, so the forced shortest-path fallback runs.
		{"oscillating", func(o *Options) { o.ExtendedWeight, o.DecayDelta = 20, 0 }},
	}
	seen := 0
	for _, name := range []string{"rd84_142", "cm152a_212"} {
		bench, err := gen.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := bench.Build()
		a := arch.NewBaseline(arch.IBM20Q4Bus)
		for _, v := range variants {
			opt := DefaultOptions()
			v.edit(&opt)
			key := name + "/" + v.name
			res, err := Map(c, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			seen++
			checkDigest(t, goldenOptionDigests, key, res)
		}
	}
	if seen != len(goldenOptionDigests) {
		t.Errorf("mapped %d (benchmark, options) pairs, %d pinned", seen, len(goldenOptionDigests))
	}
}
