package flow

import (
	"testing"

	"overcell/internal/gen"
)

// goldenHashes pins the result hash of every flow on every committed
// preset. Routing is byte-deterministic, so any change here is a
// change in routing results and must be deliberate.
var goldenHashes = map[string]map[string]string{
	"ami33": {
		"baseline":    "9ff145a2b103f19689f71885ba8fa0280a624b7cdff1e208c361263d7f2011cc",
		"proposed":    "d270f562a0e48f23a8c953ec29de2f55f614f840941d0bf03ab8b6945c421b71",
		"channel4":    "78da57ea0cc3bb658d06985468191f48ba3080faa9185150cbcfcececfaf8656",
		"channelfree": "1e06546f5e9a3c7255cd3cd4433fd6e143a64718b68d6d569e4135e685758a40",
	},
	"xerox": {
		"baseline":    "be3678961366af0fe3d764673fae6c9389ab4d9fcbea1650a282eac0bb7230a1",
		"proposed":    "dc82c60d48f356c156491513891ba21838512014c5b8841222a364454d616365",
		"channel4":    "e2765c82ab9c52e12004a8b2ed187a4bc7326ef607f8e150b3a192053f337770",
		"channelfree": "6d65a12acbf0d4d7bd9420bb7f43465b68f2ca61d1ff1e6cbcaf7c3e2d8b294e",
	},
	"ex3": {
		"baseline":    "7d25b0addc0b643c88b32ca10caa4004f4e17e7377922d8ffc259965ff051058",
		"proposed":    "0ac7b6d436c728e82e945b91f0720ec4a17f866e747bac26e17f5d18934c9d24",
		"channel4":    "aae0973fcb049a55b5aaa96c7e9a53f84c6c541db65a078f99d9a8e42ca5b00f",
		"channelfree": "0196ebf3dab16664d7d951806603246874166587e399d2a7b928cc1d9fae992d",
	},
}

func TestGoldenHashes(t *testing.T) {
	presets := map[string]func() (*gen.Instance, error){
		"ami33": gen.Ami33Like, "xerox": gen.XeroxLike, "ex3": gen.Ex3Like,
	}
	flows := map[string]func(*gen.Instance, Options) (*Result, error){
		"baseline": TwoLayerBaseline, "proposed": Proposed,
		"channel4": FourLayerChannel, "channelfree": ChannelFree,
	}
	for preset, want := range goldenHashes {
		for name, hash := range want {
			t.Run(preset+"/"+name, func(t *testing.T) {
				inst, err := presets[preset]()
				if err != nil {
					t.Fatal(err)
				}
				res, err := flows[name](inst, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := Hash(res); got != hash {
					t.Errorf("hash %s, want %s", got, hash)
				}
			})
		}
	}
}
