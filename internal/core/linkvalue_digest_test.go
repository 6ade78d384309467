package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/hierarchy"
)

// linkValueDigest is the SHA-256 of a value vector's IEEE-754 bits, so a
// digest match is bit-for-bit equality.
func linkValueDigest(values []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// linkValueDigests are the digests TestLinkValueDigests expects, keyed by
// network and source budget.
var linkValueDigests = map[string]string{
	"AS/48":         "3d5e217840233abeba5bf84de5c79fbfefdbaa54e56a66cd7499b01c54fb4555",
	"AS/192":        "68e8350738206d3d4c28a99da2b8ff86df1e3999ac2d06165a90471ecac95c20",
	"RLcore/48":     "e7966a74626f6149295049febf91acbafbf5f4bd8133968baef79bed07c3f75a",
	"RLcore/192":    "957f79300add0e95ba5dab4e96a21b7b3cf286949111eddc1a5847766cf996ac",
	"PLRG/48":       "65bf968873d612ff05b8fd26f0e25761f17d9b5c367c4098d77c315fcffa567e",
	"PLRG/192":      "87f978ca812ea5d7efc471c92e0cfa8c70803f713e9d0f9d8515cf63067a4fcb",
	"TS/48":         "6b358fa3542479b5810de3786d8eede48d0b06a84dbe6a89bdd678a3d55d8a52",
	"TS/192":        "2018773d07524164b3d8580114a56db40457bd2276b5a2d7169fdf2dd30afc8d",
	"Tree/48":       "ec4d3c813f297e8d8a47de3b2ac5e3b9deafdbd4fde3c60ac27fe07546fa7573",
	"Tree/192":      "3e17fcdd8dc531be3bb821cf9c087c9c1b24595f78ae9820e4c069a240dc7505",
	"Random/48":     "a9ac486365b9b29b872352d456b52be74e8d624d058efc5704306af734f1d6f4",
	"Random/192":    "83f2213f27207e19769e9d792197428eb44c8aff32f75282cae78d5b68045a17",
	"Mesh/48":       "34ea57797b67fe753707bed918c36b8a9c6a6ed3adbf58e5317200e6278da17d",
	"Mesh/192":      "a7ae6b44afc57d35a28bd403c609b050836842a568c11d4f23c2428acc853559",
	"policy/AS/48":  "9d55b8f7e341320c99a7aabb664b7c593f5e451635fd8e9f86203417ac48387d",
	"policy/AS/192": "8e965529539a68f8071e486bcf58acf3538f22bd0948bc3f222706b33494431c",
}

// TestLinkValueDigests pins LinkValues and PolicyLinkValues bit for bit on
// the paper families without relying on a second implementation: the
// digests were recorded before the link-value entry store was rebuilt, so
// they hold every route — scalar for the 30×30 Mesh, sigma-batched
// elsewhere, one worker or two — to the values the earlier design
// produced.
func TestLinkValueDigests(t *testing.T) {
	nets := sigmaGoldenNets(t)
	delete(nets, "SmallMesh")
	ms := BuildMeasured(PaperSetOptions{Seed: 1, Scale: 0.12})
	check := func(key string, values []float64) {
		t.Helper()
		if got := linkValueDigest(values); got != linkValueDigests[key] {
			t.Errorf("%q: %q, // digest mismatch", key, got)
		}
	}
	for _, budget := range []int{48, 192} {
		for _, parallel := range []int{1, 2} {
			opts := hierarchy.Options{
				MaxSources:  budget,
				Rand:        rand.New(rand.NewSource(7)),
				Parallelism: parallel,
			}
			for name, g := range nets {
				opts.Rand = rand.New(rand.NewSource(7))
				check(fmt.Sprintf("%s/%d", name, budget), hierarchy.LinkValues(g, opts).Values)
			}
			opts.Rand = rand.New(rand.NewSource(7))
			check(fmt.Sprintf("policy/AS/%d", budget), hierarchy.PolicyLinkValues(ms.AS.Policy, opts).Values)
		}
	}
}
