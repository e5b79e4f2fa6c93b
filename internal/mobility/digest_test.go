package mobility

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"freshcache/internal/trace"
)

// traceDigest hashes a trace's contacts in order: each contact's A and B,
// then the IEEE bits of its Start and End, all as little-endian 64-bit
// words.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	var b [32]byte
	for _, c := range tr.Contacts {
		binary.LittleEndian.PutUint64(b[0:], uint64(c.A))
		binary.LittleEndian.PutUint64(b[8:], uint64(c.B))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(c.Start))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(c.End))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTraceDigests pins every generator's output at seeds 1–3,
// contact by contact and bit for bit: both presets, E21's generator at
// 2,000 and 5,000 nodes, both paths of the heterogeneous model and the
// drift scenario. A change to a generator's RNG use, its pair order or
// Normalize's order fails here, whether or not a result table reaches the
// generator. A change meant to move a trace replaces its digests and says
// why.
func TestGeneratedTraceDigests(t *testing.T) {
	for _, tc := range []struct {
		gen  Generator
		want [3]string // seeds 1, 2 and 3
	}{
		{RealityLike(), [3]string{
			"ac7535cb40815fddccf19c06bae45817772dd393aa14c3e0637388d1687d0867",
			"fe36111e9ecc1d4f0d9dc13715baf3abe2d175317dc8a0f731a0fe643e58da7a",
			"66eefbca1b4436dd3451f3e92888fecd218c20db3d38110cb276e599bccd1bd8",
		}},
		{InfocomLike(), [3]string{
			"afd876948233d4b5560c719570b691e405d50356c040a54fe010cd07d046cc0f",
			"8d8571b02140cdd1cf3972b7299dac78ec912a8417f316de449d4c5884ffad3a",
			"75e6876dee3919504db4e7e4b8422a6382510187143d193f587048447be367cf",
		}},
		{LargeCommunity(2000), [3]string{
			"72b2fb910a39b4223e4e441d1351fc11e890d4c1c0ad391d0f231d3a579ccf7a",
			"a7eb5f9e1c4ad82133427a705b6d37ca5575cc4eb1c5dc2b551486544654d46b",
			"f62c3a83fa694823690b9ed3c5c3d6da0491eb3b0b547b01aaf200409f9fdb85",
		}},
		{LargeCommunity(5000), [3]string{
			"6a67fc70f71a8cc516b43dc602524d3e393db6b3cdaa55336b135f7cd753dfc5",
			"4d5e5f8440cd122b49d9b379db95c4e066edeb4378f65b3ae88025c860fb47cd",
			"b8999ecc422a2f619fef30ff630d4df0d27d04e132dda36e54a81c81a9d51dee",
		}},
		{&HeterogeneousExp{TraceName: "hetexp", N: 60, Duration: 10 * Day, MeanRate: 2.0 / Day, RateShape: 0.8, PairFraction: 0.5, MeanContactDur: 300}, [3]string{
			"6d8f5327df16af629564b78f8913a95c7b255658a5fb842daf6d9ff4637d8fe9",
			"b95cbadef56d80e40af63059c8cbc996c6a1180235cf4399c2f52b59ed4505d6",
			"dc13255c880a57e239e5deb923f9d8ce4d779919c2bfb127f5421391063fc46b",
		}},
		{&HeterogeneousExp{TraceName: "hetexp-sparse", N: 2000, Duration: 4 * Day, MeanRate: 2.0 / Day, RateShape: 0.8, PairFraction: 0.01, MeanContactDur: 120}, [3]string{
			"2999ff46e9436f01bb50793ac5b4b66d822e19d393068e710466f5002092d4d1",
			"fc905ec49cc601bdd25ec4e4382c89a564b29ce39da7ab29312c59955fdaf715",
			"5ab9956d1a25b874c3df8a1b02f04134a54edc7d7c01e3ceb6000f7115e7ed4c",
		}},
		{DriftingCommunity(40, 8*Day), [3]string{
			"5f346b931c1afc8fbd97b8dd08df0e742b2b2be70ba270f4fe8639b13067449e",
			"571511d94be5f3e14b779683c6059a2c70dbb6e8f9eb0f1ef92677152a3cb60b",
			"ade2e0c87190dec41d0325cef8c7f9b0e4afeaebf300e4b132220d43a2e74f38",
		}},
	} {
		for i, want := range tc.want {
			seed := int64(i + 1)
			tr, err := tc.gen.Generate(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.gen.Name(), seed, err)
			}
			if got := traceDigest(tr); got != want {
				t.Errorf("%s seed %d: %d contacts hash to %s, want %s", tc.gen.Name(), seed, len(tr.Contacts), got, want)
			}
		}
	}
}
