// Package report renders the study's experiments as the ASCII counterparts
// of the paper's tables and figures. Every renderer consumes the typed
// results computed by internal/core, so cmd/pinstudy, the benches and
// EXPERIMENTS.md all show identical numbers.
package report

import (
	"fmt"
	"strings"

	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/pii"
	"pinscope/internal/stats"
)

// table is a minimal column formatter.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func pct(n, d int) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", stats.Percent(n, d))
}

func platName(p appmodel.Platform) string {
	if p == appmodel.Android {
		return "Android"
	}
	return "iOS"
}

// Table1 renders the dataset overview.
func Table1(s *core.Study) string {
	var b strings.Builder
	b.WriteString("Table 1: dataset overview (top categories per dataset)\n\n")
	for _, row := range s.Table1(10) {
		fmt.Fprintf(&b, "%s %s (n=%d):\n", row.Cell.Dataset, platName(row.Cell.Platform), row.Total)
		for i, kv := range row.Top {
			fmt.Fprintf(&b, "  %2d. %-18s %s\n", i+1, kv.Key, pct(kv.Count, row.Total))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2 renders the prior-work comparison.
func Table2(s *core.Study) string {
	t := &table{header: []string{"Study", "Year", "Prevalence", "Analysis", "Dataset"}}
	for _, r := range s.Table2() {
		marker := ""
		if r.Measured {
			marker = " *"
		}
		t.add(r.Study+marker, fmt.Sprintf("%d", r.Year),
			fmt.Sprintf("%.2f%%", r.Prevalence), r.Analysis, r.Dataset)
	}
	return "Table 2: certificate pinning prevalence in prior work vs the\nNSC-only technique measured on our datasets (*)\n\n" + t.String()
}

// Table3 renders prevalence by method.
func Table3(s *core.Study) string {
	t := &table{header: []string{"Dataset", "Platform", "Dynamic", "Embedded Certs", "Config Files (NSC)"}}
	for _, c := range s.Table3() {
		nsc := "-"
		if c.NSCPins >= 0 {
			nsc = fmt.Sprintf("%s (%d)", pct(c.NSCPins, c.N), c.NSCPins)
		}
		t.add(
			fmt.Sprintf("%s (n=%d)", c.Cell.Dataset, c.N),
			platName(c.Cell.Platform),
			fmt.Sprintf("%s (%d)", pct(c.Dynamic, c.N), c.Dynamic),
			fmt.Sprintf("%s (%d)", pct(c.StaticEmbedded, c.N), c.StaticEmbedded),
			nsc,
		)
	}
	return "Table 3: pinning prevalence by method and dataset\n\n" + t.String()
}

// TableCategories renders Table 4 (Android) or Table 5 (iOS).
func TableCategories(s *core.Study, platform appmodel.Platform, minApps int) string {
	n := 4
	if platform == appmodel.IOS {
		n = 5
	}
	t := &table{header: []string{"Category (Rank)", "Pinning %", "No. of Apps"}}
	for _, r := range s.TableCategories(platform, 10, minApps) {
		t.add(fmt.Sprintf("%s (%d)", r.Category, r.Rank),
			fmt.Sprintf("%.2f%%", r.Pct),
			fmt.Sprintf("%d", r.Pinning))
	}
	return fmt.Sprintf("Table %d: top categories of pinning apps on %s (all datasets)\n\n%s",
		n, platName(platform), t.String())
}

// Figure2 renders the common-dataset split.
func Figure2(s *core.Study) string {
	f := s.Figure2Data()
	var b strings.Builder
	b.WriteString("Figure 2: pinning in the Common dataset, split by platform\n\n")
	fmt.Fprintf(&b, "  common pairs analyzed:        %d\n", f.Pairs)
	fmt.Fprintf(&b, "  pin on at least one platform: %d\n", f.PinsEither)
	fmt.Fprintf(&b, "  pin on both platforms:        %d\n", f.PinsBoth)
	fmt.Fprintf(&b, "  pin on Android only:          %d\n", f.AndroidOnly)
	fmt.Fprintf(&b, "  pin on iOS only:              %d\n", f.IOSOnly)
	fmt.Fprintf(&b, "  of both-platform pinners:\n")
	fmt.Fprintf(&b, "    consistent:                 %d (identical domain sets: %d)\n", f.Consistent, f.IdenticalSets)
	fmt.Fprintf(&b, "    inconsistent:               %d\n", f.Inconsistent)
	fmt.Fprintf(&b, "    inconclusive:               %d\n", f.Inconclusive)
	return b.String()
}

// Figure3 renders the both-platform inconsistency heatmap.
func Figure3(s *core.Study) string {
	t := &table{header: []string{"App", "Jaccard(pinned)", "% pinnedAndroid not pinned iOS", "% pinnedIOS not pinned Android"}}
	for _, r := range s.Figure3Data() {
		t.add(r.Name,
			fmt.Sprintf("%.2f", r.Jaccard),
			fmt.Sprintf("%.0f%%", r.PinnedAOnNotI*100),
			fmt.Sprintf("%.0f%%", r.PinnedIOnNotA*100))
	}
	return "Figure 3: inconsistent apps that pin on both platforms\n\n" + t.String()
}

// Figure4 renders the exclusive-pinner heatmaps.
func Figure4(s *core.Study) string {
	android, ios := s.Figure4Data()
	var b strings.Builder
	b.WriteString("Figure 4: apps pinning exclusively on one platform\n\n")
	b.WriteString("(a) Android-only pinners: % of pinned domains seen NOT pinned on iOS\n")
	ta := &table{header: []string{"App", "% pinned->unpinned on iOS"}}
	for _, r := range android {
		ta.add(r.Name, fmt.Sprintf("%.0f%%", r.PinnedAOnNotI*100))
	}
	b.WriteString(ta.String())
	b.WriteString("\n(b) iOS-only pinners: % of pinned domains seen NOT pinned on Android\n")
	ti := &table{header: []string{"App", "% pinned->unpinned on Android"}}
	for _, r := range ios {
		ti.add(r.Name, fmt.Sprintf("%.0f%%", r.PinnedIOnNotA*100))
	}
	b.WriteString(ti.String())
	return b.String()
}

// Figure5 renders the per-app domain-split summary.
func Figure5(s *core.Study) string {
	var b strings.Builder
	b.WriteString("Figure 5: pinned vs not-pinned domains per pinning app\n")
	b.WriteString("(Popular+Random datasets; first/third-party attribution via whois)\n\n")
	for _, plat := range appmodel.Platforms {
		f := s.Figure5Stats(plat)
		fmt.Fprintf(&b, "%s (%d pinning apps):\n", platName(plat), f.Apps)
		fmt.Fprintf(&b, "  pin ALL first-party domains contacted:  %d\n", f.PinsAllFP)
		fmt.Fprintf(&b, "  leave some first parties unpinned:      %d\n", f.HasUnpinnedFP)
		fmt.Fprintf(&b, "  pin every destination contacted:        %d\n", f.PinsAllContacted)
		fmt.Fprintf(&b, "  pinned destinations: %d first-party, %d third-party (%s third-party)\n",
			f.PinnedDestsFP, f.PinnedDestsTP,
			pct(f.PinnedDestsTP, f.PinnedDestsFP+f.PinnedDestsTP))
		bars := s.Figure5Data(plat)
		fmt.Fprintf(&b, "  per-app bars (FPpin/FPopen/TPpin/TPopen), first %d shown:\n", min(8, len(bars)))
		for i, bar := range bars {
			if i == 8 {
				break
			}
			fmt.Fprintf(&b, "    %-28s %d/%d/%d/%d\n", bar.AppID,
				bar.FPPinned, bar.FPUnpinned, bar.TPPinned, bar.TPUnpinned)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table6 renders the pinned-destination PKI classification.
func Table6(s *core.Study) string {
	t := &table{header: []string{"Platform", "Default PKI", "Custom PKI", "Self-signed", "Data Unavailable"}}
	for _, r := range s.Table6() {
		t.add(platName(r.Platform),
			fmt.Sprintf("%d", r.DefaultPKI),
			fmt.Sprintf("%d", r.CustomPKI),
			fmt.Sprintf("%d", r.SelfSigned),
			fmt.Sprintf("%d", r.Unavailable))
	}
	return "Table 6: PKI type of pinned destinations\n\n" + t.String()
}

// CertAnalysis renders the §5.3.2-§5.3.4 statistics.
func CertAnalysis(s *core.Study) string {
	pt := s.PinTargets()
	rot := s.Rotations()
	var b strings.Builder
	b.WriteString("Certificate analysis (§5.3)\n\n")
	fmt.Fprintf(&b, "  static/dynamic cert matching: %d of %d pinning apps matched (%s)\n",
		pt.AppsMatched, pt.PinningApps, pct(pt.AppsMatched, pt.PinningApps))
	fmt.Fprintf(&b, "  matched pinned certificates: %d CA (%s) vs %d leaf\n",
		pt.CACerts, pct(pt.CACerts, pt.MatchedCerts), pt.LeafCerts)
	fmt.Fprintf(&b, "  leaf-pinned destinations: %d; served a renewed leaf: %d; key reused: %d\n",
		rot.LeafPinnedDests, rot.ServedNewLeaf, rot.KeyReused)
	fmt.Fprintf(&b, "  pinned destinations serving expired-yet-accepted certs: %d\n", s.ExpiredAccepted())
	return b.String()
}

// Table7 renders the third-party framework attribution.
func Table7(s *core.Study, minApps int) string {
	var b strings.Builder
	b.WriteString("Table 7: top third-party frameworks carrying certificate material\n\n")
	for _, plat := range appmodel.Platforms {
		fmt.Fprintf(&b, "%s:\n", platName(plat))
		t := &table{header: []string{"Framework", "Kind", "# apps"}}
		for _, fw := range s.Table7(plat, 5, minApps) {
			t.add(fw.SDK.Name, fw.SDK.Kind, fmt.Sprintf("%d", fw.Apps))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Table8 renders the weak-cipher comparison.
func Table8(s *core.Study) string {
	t := &table{header: []string{"Dataset", "Platform", "Overall (weak ciphers)", "Pinning apps (weak pinned conns)"}}
	for _, c := range s.Table8() {
		t.add(c.Cell.Dataset, platName(c.Cell.Platform),
			pct(c.OverallWeak, c.OverallApps),
			pct(c.PinnedWeak, c.PinningApps))
	}
	return "Table 8: weak ciphers in pinned vs all connections\n\n" + t.String()
}

// Table9 renders the PII comparison.
func Table9(s *core.Study) string {
	t := &table{header: []string{"Platform", "PII", "Pinned", "Non-Pinned", "p-value", "Significant"}}
	for _, r := range s.Table9() {
		if r.PinnedWith == 0 && r.NonPinnedWith == 0 {
			continue
		}
		name := string(r.Kind)
		if r.Kind == pii.GeoLat {
			name = "lat/lon"
		}
		sig := ""
		if r.Significant {
			sig = "* (p<0.05)"
		}
		t.add(platName(r.Platform), name,
			fmt.Sprintf("%.2f%% (%d/%d)", r.PctPinned, r.PinnedWith, r.PinnedTotal),
			fmt.Sprintf("%.2f%% (%d/%d)", r.PctNonPinned, r.NonPinnedWith, r.NonPinnedTotal),
			fmt.Sprintf("%.3f", r.PValue), sig)
	}
	return "Table 9: PII in pinned vs non-pinned traffic (destination level)\n\n" + t.String()
}

// Circumvention renders the §4.3 rates.
func Circumvention(s *core.Study) string {
	t := &table{header: []string{"Platform", "Pinned destinations", "Circumvented", "Rate"}}
	for _, c := range s.Circumvention() {
		t.add(platName(c.Platform), fmt.Sprintf("%d", c.Dests),
			fmt.Sprintf("%d", c.Circumvented), fmt.Sprintf("%.2f%%", c.Pct))
	}
	return "Pinning circumvention by TLS-library hooking (§4.3)\n\n" + t.String()
}

// Quality renders the simulation-validation confusion matrix.
func Quality(s *core.Study) string {
	q := s.Quality()
	var b strings.Builder
	b.WriteString("Detector validation against generator ground truth (simulation only)\n\n")
	fmt.Fprintf(&b, "  apps studied:     %d\n", q.Apps)
	fmt.Fprintf(&b, "  true positives:   %d\n", q.TruePositives)
	fmt.Fprintf(&b, "  false positives:  %d\n", q.FalsePositives)
	fmt.Fprintf(&b, "  false negatives:  %d\n", q.FalseNegatives)
	fmt.Fprintf(&b, "  precision:        %.3f\n", q.Precision)
	fmt.Fprintf(&b, "  recall:           %.3f\n", q.Recall)
	return b.String()
}

// Interaction renders the §4.2.1 app-interaction comparison.
func Interaction(s *core.Study, sample int) string {
	r := s.InteractionExperiment(sample)
	var b strings.Builder
	b.WriteString("App-interaction experiment (§4.2.1)\n\n")
	fmt.Fprintf(&b, "  apps sampled:                      %d\n", r.Apps)
	fmt.Fprintf(&b, "  avg domains, launch only:          %.2f\n", r.AvgDomainsLaunchOnly)
	fmt.Fprintf(&b, "  avg domains, with monkey input:    %.2f\n", r.AvgDomainsInteractive)
	fmt.Fprintf(&b, "  relative change:                   %+.1f%%\n", r.RelativeChange*100)
	b.WriteString("  (semantic flows — sign-up, log-in — stay out of reach of random\n")
	b.WriteString("   input, so interactions are omitted from the main runs, as in the paper)\n")
	return b.String()
}

// Misconfigs renders the NSC misconfiguration analysis.
func Misconfigs(s *core.Study) string {
	m := s.Misconfigs()
	var b strings.Builder
	b.WriteString("Android NSC misconfiguration analysis (§2.2 context)\n\n")
	fmt.Fprintf(&b, "  Android apps analyzed:        %d\n", m.AndroidApps)
	fmt.Fprintf(&b, "  shipping an NSC:              %d (%s)\n", m.NSCApps, pct(m.NSCApps, m.AndroidApps))
	fmt.Fprintf(&b, "  NSC with pin-set:             %d\n", m.NSCPinApps)
	fmt.Fprintf(&b, "  with misconfigurations:       %d\n", m.Misconfigured)
	for _, e := range m.Examples {
		fmt.Fprintf(&b, "    e.g. %s\n", e)
	}
	return b.String()
}

// Sweep renders the §4.2.1 sleep-window sweep.
func Sweep(points []core.SweepPoint) string {
	t := &table{header: []string{"Window (s)", "Apps sampled", "Avg TLS handshakes"}}
	for _, p := range points {
		t.add(fmt.Sprintf("%.0f", p.Window), fmt.Sprintf("%d", p.AppsSampled),
			fmt.Sprintf("%.2f", p.AvgHandshakes))
	}
	return "Sleep-window sweep (§4.2.1)\n\n" + t.String()
}

// Ablations renders the methodology ablations.
func Ablations(rows []core.AblationResult) string {
	t := &table{header: []string{"Ablation", "Apps", "False positives", "Missed pinners"}}
	for _, r := range rows {
		t.add(r.Name, fmt.Sprintf("%d", r.Apps),
			fmt.Sprintf("%d", r.FalsePositives), fmt.Sprintf("%d", r.Missed))
	}
	return "Methodology ablations\n\n" + t.String()
}

// Robustness renders the resilient runner's retry/quarantine/degradation
// accounting.
func Robustness(s *core.Study) string {
	st := s.Robustness()
	var b strings.Builder
	b.WriteString("Study robustness (fault injection, retries, quarantine)\n\n")
	if s.Cfg.Faults.Enabled() {
		r := s.Cfg.Faults.Rates()
		fmt.Fprintf(&b, "  fault rates: reset %.0f%%, record drop %.0f%%, capture trunc %.0f%%,\n",
			r.ConnReset*100, r.RecordDrop*100, r.CaptureTrunc*100)
		fmt.Fprintf(&b, "               app crash %.0f%%, decrypt fail %.0f%%, forge fail %.0f%%\n",
			r.AppCrash*100, r.DecryptFail*100, r.ForgeFail*100)
		fmt.Fprintf(&b, "  retry budget per app:    %d\n\n", s.Cfg.Retries)
	} else {
		b.WriteString("  fault injection disabled (clean run)\n\n")
	}
	fmt.Fprintf(&b, "  apps studied:            %d\n", st.Apps)
	fmt.Fprintf(&b, "  measurement attempts:    %d\n", st.Attempts)
	fmt.Fprintf(&b, "  apps retried:            %d (%s)\n", st.Retried, pct(st.Retried, st.Apps))
	fmt.Fprintf(&b, "  apps quarantined:        %d (%s)\n", st.Quarantined, pct(st.Quarantined, st.Apps))
	fmt.Fprintf(&b, "  confidence: full %d, dynamic-only %d, static-only %d, none %d\n",
		st.Full, st.DynamicOnly, st.StaticOnly, st.None)
	fmt.Fprintf(&b, "  iOS Common delayed re-run kept: %d\n", st.DelayedRerunKept)
	return b.String()
}

// Chaos renders a chaos sweep: per fault rate, the robustness accounting
// and the largest drift of any Table 3 dynamic prevalence from the
// fault-free reference.
func Chaos(points []core.ChaosPoint) string {
	t := &table{header: []string{"Fault rate", "Apps", "Attempts", "Retried", "Quarantined", "Degraded", "Max |drift| (pp)", "Shards killed", "Resumed frames", "Net faults", "Fenced", "Shard merge"}}
	for _, p := range points {
		degraded := p.Stats.DynamicOnly + p.Stats.StaticOnly + p.Stats.None
		killed, resumed, netFaults, fenced, merge := "-", "-", "-", "-", "-"
		if d := p.Sharded; d != nil {
			killed = fmt.Sprintf("%d", d.Stats.WorkersKilled)
			resumed = fmt.Sprintf("%d", d.Stats.ResumedFrames)
			netFaults = fmt.Sprintf("%d", d.NetFaults)
			fenced = fmt.Sprintf("%d", d.Stats.Fenced)
			merge = "diverged"
			if d.ByteIdentical {
				merge = "identical"
			}
		}
		t.add(
			fmt.Sprintf("%.0f%%", p.Rate*100),
			fmt.Sprintf("%d", p.Stats.Apps),
			fmt.Sprintf("%d", p.Stats.Attempts),
			fmt.Sprintf("%d", p.Stats.Retried),
			fmt.Sprintf("%d", p.Stats.Quarantined),
			fmt.Sprintf("%d", degraded),
			fmt.Sprintf("%.2f", p.MaxAbsDriftPP),
			killed, resumed, netFaults, fenced, merge,
		)
	}
	return "Chaos sweep: Table 3 dynamic-prevalence drift under rising fault rates\n\n" + t.String()
}

// Full renders the entire study.
func Full(s *core.Study) string {
	sections := []string{
		Table1(s), Table2(s), Table3(s),
		TableCategories(s, appmodel.Android, minAppsFor(s)),
		TableCategories(s, appmodel.IOS, minAppsFor(s)),
		Figure2(s), Figure3(s), Figure4(s), Figure5(s),
		Table6(s), CertAnalysis(s), Table7(s, table7MinApps(s)),
		Table8(s), Table9(s), Circumvention(s), Misconfigs(s),
		Interaction(s, interactionSampleFor(s)),
	}
	// Only faulted runs carry robustness information worth a section;
	// omitting it on clean runs keeps their report byte-identical to
	// pre-fault-injection builds.
	if s.Cfg.Faults.Enabled() {
		sections = append(sections, Robustness(s))
	}
	return strings.Join(sections, "\n"+strings.Repeat("=", 72)+"\n\n")
}

// minAppsFor scales the category-table noise filter with dataset size.
func minAppsFor(s *core.Study) int {
	n := len(s.World.DS.PopularAndroid.Listings)
	m := n / 100
	if m < 2 {
		m = 2
	}
	return m
}

// interactionSampleFor caps the interaction-experiment sample.
func interactionSampleFor(s *core.Study) int {
	n := len(s.World.DS.PopularAndroid.Listings)
	if n > 400 {
		return 400
	}
	return n
}

// table7MinApps scales the paper's ">5 apps" review threshold.
func table7MinApps(s *core.Study) int {
	n := len(s.World.DS.PopularAndroid.Listings)
	m := n * 5 / 1000
	if m < 2 {
		m = 2
	}
	return m
}
