package dynamicanalysis

// variants.go hosts detector variants used by the ablation benches: a
// naive non-differential detector and a classifier that ignores the TLS 1.3
// record disguise. They quantify how much each design choice of §4.2
// contributes to the methodology's accuracy.

import (
	"pinscope/internal/netem"
	"pinscope/internal/tlswire"
)

// ClassifyFlowLegacy treats every version like TLS <= 1.2: any
// application_data record counts as "used". Under TLS 1.3 this mistakes
// handshake flights and encrypted alerts for application traffic.
func ClassifyFlowLegacy(f *netem.Flow) ConnStatus {
	used := false
	f.ViewRecords(func(recs []tlswire.Summary) {
		for i := range recs {
			if recs[i].WireType == tlswire.RecAppData {
				used = true
				return
			}
		}
	})
	if used {
		return StatusUsed
	}
	clientClose, _ := f.CloseFlags()
	if clientClose != tlswire.CloseNone {
		return StatusFailed
	}
	return StatusInconclusive
}

// DetectNaive is the non-differential strawman: it looks ONLY at the MITM
// capture and calls every destination whose connections always failed
// "pinned". Without the baseline it cannot distinguish pinning from server
// failures, redundant connections or protocol problems.
func DetectNaive(appID string, mitm *netem.Capture, opts Options) *Result {
	inter := SummarizeCapture(mitm)
	res := &Result{AppID: appID, Verdicts: make(map[string]*DestVerdict)}
	for dest, m := range inter {
		v := &DestVerdict{Dest: dest, Excluded: excluded(dest, opts.ExcludeDomains)}
		v.UsedMITM = m.Used > 0
		if !v.Excluded && m.Used == 0 && m.Failed > 0 {
			v.Pinned = true
		}
		res.Verdicts[dest] = v
	}
	return res
}
