// Code generated by "go test ./internal/synthrag -run TestExpertDraftsCurrent -update"; DO NOT EDIT.

package synthrag

import "repro/internal/synth"

// expertDrafts is the palette sweep's answer for the shipped expert corpus
// under the shipped library: one row per design, keyed by draftKey, holding
// the winning plan's palette name and the QoR it achieved, every float in
// exact round-trip form. Build reads a design's row instead of sweeping it;
// TestExpertDraftsCurrent sweeps every design and holds this table to the
// result, bit for bit.
var expertDrafts = map[string]paletteResult{
	"536a67346ef6997517bdc93bebd2fcd155dc98846095bdf1b834c842a495a945": { // fft
		name: "fanout",
		qor: synth.QoR{
			Design:     "fft_fft",
			Period:     3,
			WNS:        -2.683912875000004,
			CPS:        -2.683912875000004,
			TNS:        -72.6745098750002,
			Area:       7157.9429599998375,
			Leakage:    19129.19999999975,
			Cells:      2736,
			Seq:        72,
			Violations: 36,
		},
	},
	"4bdebcfb8bc055e20dda237bb2359492d1943b9866c73bc2e99dd9b97e5123ee": { // gemmini
		name: "retime",
		qor: synth.QoR{
			Design:     "mac_gemmini",
			Period:     3,
			WNS:        0,
			CPS:        0.011790000000000411,
			TNS:        0,
			Area:       4158.643999999932,
			Leakage:    8322.399999999972,
			Cells:      2604,
			Seq:        280,
			Violations: 0,
		},
	},
	"ea8d94cb5e77dc73f6a6e8a8a550d5d1473fb8228dd1d7ba569a8eb7d37dd7e0": { // nvdla
		name: "retime",
		qor: synth.QoR{
			Design:     "mac_nvdla",
			Period:     3.2,
			WNS:        0,
			CPS:        0.003690000000000637,
			TNS:        0,
			Area:       4731.873999999931,
			Leakage:    9409.899999999978,
			Cells:      2770,
			Seq:        393,
			Violations: 0,
		},
	},
	"1d269df78f04250f7a0c90605053dee8fa50c25b76080ce2e3a0f631137d2897": { // nvdla_wrapped
		name: "effort",
		qor: synth.QoR{
			Design:     "nvdla_wrapped",
			Period:     3.4,
			WNS:        0,
			CPS:        0.16977624999999863,
			TNS:        0,
			Area:       2238.166560000021,
			Leakage:    5236.700000000018,
			Cells:      1224,
			Seq:        68,
			Violations: 0,
		},
	},
	"9dbed95e4b6e0271225c0a73cd8a89fd79473e7d3ab4685b93f1a7f245b4ea6d": { // rocket
		name: "fanout",
		qor: synth.QoR{
			Design:     "cpu_rocket",
			Period:     2.6,
			WNS:        -0.7878705000000013,
			CPS:        -0.7878705000000013,
			TNS:        -14.057448000000043,
			Area:       4112.764319999971,
			Leakage:    9238.40000000004,
			Cells:      2392,
			Seq:        128,
			Violations: 32,
		},
	},
	"30f4a4c4c8443839f1ce7d4246de018b074e869e7f2d98a7f26530880cb3fa79": { // rocket_bus
		name: "fanout+",
		qor: synth.QoR{
			Design:     "rocket_bus",
			Period:     2.6,
			WNS:        0,
			CPS:        0.10519999999999996,
			TNS:        0,
			Area:       2420.615960000011,
			Leakage:    5182.300000000006,
			Cells:      1515,
			Seq:        112,
			Violations: 0,
		},
	},
	"1dce709eee4bcf131e2c5a812e5071db417d3234ea2a6105526bc7fb2546c4ec": { // sha3
		name: "retime",
		qor: synth.QoR{
			Design:     "sha_sha3",
			Period:     1.6,
			WNS:        0,
			CPS:        0.030220000000000136,
			TNS:        0,
			Area:       2791.9359999999883,
			Leakage:    5696.000000000041,
			Cells:      1472,
			Seq:        256,
			Violations: 0,
		},
	},
	"2a85c61d312798ab677a47629f377f069896b722c1f6d3db593befabd9c5359e": { // sha3_serial
		name: "generic",
		qor: synth.QoR{
			Design:     "sha3_serial",
			Period:     3.4,
			WNS:        0,
			CPS:        0.25380499999999895,
			TNS:        0,
			Area:       110.14527999999999,
			Leakage:    269.1000000000001,
			Cells:      60,
			Seq:        0,
			Violations: 0,
		},
	},
	"834cec9a0e1759601a339be4b47bf267a845cce6f71fec53b62892b4508eee6f": { // simd
		name: "fanout+",
		qor: synth.QoR{
			Design:     "vec_simd",
			Period:     1.8,
			WNS:        -0.40381750000000016,
			CPS:        -0.40381750000000016,
			TNS:        -7.520389999999997,
			Area:       2624.4198400000146,
			Leakage:    5900.000000000014,
			Cells:      1248,
			Seq:        128,
			Violations: 32,
		},
	},
	"79eb4b32596d73c582f36ae9881a96e0c7782e2411c004b0a9ed1fa3f8fa1e21": { // sodor
		name: "retime",
		qor: synth.QoR{
			Design:     "cpu_sodor",
			Period:     2.2,
			WNS:        -0.09576000000000073,
			CPS:        -0.09576000000000073,
			TNS:        -7.660800000000043,
			Area:       2946.74799999999,
			Leakage:    5811.400000000011,
			Cells:      1386,
			Seq:        352,
			Violations: 80,
		},
	},
	"e776dab7864ea8a4d19f29d9954eceec251d3c692f101490f737e196ee82a796": { // sodor_pipe5
		name: "retime",
		qor: synth.QoR{
			Design:     "sodor_pipe5",
			Period:     1.5,
			WNS:        -0.1012838749999998,
			CPS:        -0.1012838749999998,
			TNS:        -0.15699774999999971,
			Area:       1897.4311999999948,
			Leakage:    3870.700000000004,
			Cells:      757,
			Seq:        244,
			Violations: 2,
		},
	},
}
