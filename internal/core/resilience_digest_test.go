package core

import (
	"fmt"
	"testing"

	"topocmp/internal/stats"
)

// seriesDigest is the SHA-256 of a series' point coordinates followed by
// its standard errors, so a digest match is bit-for-bit equality.
func seriesDigest(s stats.Series) string {
	vals := make([]float64, 0, 2*len(s.Points)+len(s.StdErr))
	for _, p := range s.Points {
		vals = append(vals, p.X, p.Y)
	}
	return linkValueDigest(append(vals, s.StdErr...))
}

// resilienceDigests are the digests TestResilienceDigests expects, keyed by
// network, series and suite seed.
var resilienceDigests = map[string]string{
	"AS/policy/1":         "46d664e798a6c2a93c6ad8f7060f2b53d24a3ef44d1077d0ded2cd76235c96ab",
	"AS/policy/2":         "c77e03e67c3d759434c977b6fb5ccd04498639e684c3852f84e0a92c68b85bed",
	"AS/resilience/1":     "8c136417852ba08260dd4dcbd4b401d48bcd3a994b07f3332a46da8873e79e12",
	"AS/resilience/2":     "5ac7a002f07f5d1ede92403aa0da25bc051378cbb724c3535abc4cbd3132d4b5",
	"Mesh/resilience/1":   "259b4481e25c32f342a4cc6aeb9e03befc1086cc4b150f616792274ac6ed256f",
	"Mesh/resilience/2":   "47043141de829e39d9982d3562ed66e3ac1262355c2d639ae0779d3cc13dcbab",
	"PLRG/resilience/1":   "61ceb7c077a9c3650b99e5d8290858ac53605c10594ff1cfa22e9843a2455fb2",
	"PLRG/resilience/2":   "922627af21d676c11aee8b5c8eb31851bf3e681e8ebb0009f0126f3898f9991d",
	"RL/policy/1":         "9bbd5cee96186a1e8672bd2820477e29df012c182c9f2e19e613a99d950b10ec",
	"RL/policy/2":         "b0a29099473262fbd57e7b0b10eeef1fa07652d2a5fc8926bec3861eaea0d189",
	"RL/resilience/1":     "09d2b25986c2ff00c2d025f8bf636048ddd05d65a5260ac0ed810bf0997deadb",
	"RL/resilience/2":     "880ed7af899ffb2e5c897c1d418af1374b2f5f4b20d16cdc85629feb657057d6",
	"Random/resilience/1": "19d9b5c5e62c46e43b71c0e88de97c5800af4c37e20909100c60e490fce5bb13",
	"Random/resilience/2": "0b82fe2597bdfbc3d3957b95dbc732e8c8b0484d46dd534e52e3108bdd4b772e",
	"TS/resilience/1":     "97c4e5d5417d52c253086e24057c7f8c105b3f4731addbd5bb276e9c7093784d",
	"TS/resilience/2":     "aa2c7c3d785fd82abdc37b8b1d9e3a2444dfa45232767c55810f96bf3f3ba07d",
	"Tiers/resilience/1":  "036400aac9a32bef5f292a2cff101d76426b4afb552f7b939048247e28f429d6",
	"Tiers/resilience/2":  "59e923d9ce6ae693b0c6234c261eb614ea84aa42ef2fa43a60a969851c82edcf",
	"Tree/resilience/1":   "f6a56c6410bc17fa9f5acfe41fbb9a0809a0c2f470e9c99803df1c9b96fb6b59",
	"Tree/resilience/2":   "88f67f434149c4c89297a284d02ed25cff6bf7c67cc96b8302bd7320576a3042",
	"Waxman/resilience/1": "39d0f2120fb13b282a26e8f7d2a74b188f145079179a4f5330e906c747ad1fa6",
	"Waxman/resilience/2": "bf38ca9be0c1ab7da9ab45991c8930a01d4dfb4edef77ef346a313aef1b27e50",
}

// TestResilienceDigests pins the Resilience and PolicyResilience series bit
// for bit on the nine table networks at the quick set: the digests were
// recorded before the FM refinement queue was rebuilt, so they hold the
// partitioner, one suite worker or two, to the cuts the earlier design
// produced.
func TestResilienceDigests(t *testing.T) {
	set := PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := BuildMeasured(set)
	nets := []*Network{ms.AS, ms.RL}
	for _, name := range []string{"PLRG", "TS", "Tiers", "Waxman", "Mesh", "Random", "Tree"} {
		nets = append(nets, BuildNetwork(name, set))
	}
	check := func(key string, s stats.Series) {
		t.Helper()
		if got := seriesDigest(s); got != resilienceDigests[key] {
			t.Errorf("%q: %q, // digest mismatch", key, got)
		}
	}
	for _, seed := range []int64{1, 2} {
		for _, parallel := range []int{1, 2} {
			for _, n := range nets {
				res := RunSuite(n, SuiteOptions{
					Sources: 12, MaxBallSize: 1500, EigenRank: 20, LinkSources: 192,
					Seed: seed, Parallelism: parallel, SkipHierarchy: true,
				})
				check(fmt.Sprintf("%s/resilience/%d", n.Name, seed), res.Resilience)
				if n.Policy != nil || n.Overlay != nil {
					check(fmt.Sprintf("%s/policy/%d", n.Name, seed), res.PolicyResilience)
				}
			}
		}
	}
}
