// Zero-dependency live dashboard: one embedded HTML page that polls
// /v1/timeseries and /v1/flightrecorder and renders inline SVG sparklines
// — no bundler, no CDN, no external assets, so it works on an air-gapped
// operator box exactly as well as on a laptop.
package obs

import "net/http"

// DashboardHandler serves the live dashboard page. It expects
// /v1/timeseries and /v1/flightrecorder to be mounted on the same host
// (MountDiagnostics does all three).
func DashboardHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	})
}

const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>fsr dashboard</title>
<style>
  body { font: 13px/1.4 ui-monospace, SFMono-Regular, Menlo, monospace;
         background: #0d1117; color: #c9d1d9; margin: 0; padding: 16px; }
  h1 { font-size: 15px; margin: 0 0 4px; color: #e6edf3; }
  .sub { color: #8b949e; margin-bottom: 16px; }
  h2 { font-size: 13px; margin: 20px 0 8px; color: #e6edf3;
       border-bottom: 1px solid #21262d; padding-bottom: 4px; }
  .grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(280px, 1fr)); gap: 10px; }
  .panel { background: #161b22; border: 1px solid #21262d; border-radius: 6px; padding: 8px 10px; }
  .panel .name { color: #8b949e; font-size: 11px; overflow: hidden;
                 text-overflow: ellipsis; white-space: nowrap; }
  .panel .val { font-size: 16px; color: #e6edf3; }
  .panel svg { display: block; width: 100%; height: 36px; margin-top: 4px; }
  .spark { stroke: #58a6ff; stroke-width: 1.2; fill: none; }
  .fill  { fill: #58a6ff22; stroke: none; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 2px 10px 2px 0; white-space: nowrap; }
  th { color: #8b949e; font-weight: normal; }
  .slow { color: #f85149; }
  .ok { color: #3fb950; }
  details { margin: 2px 0; }
  pre { color: #8b949e; margin: 2px 0 2px 16px; }
  #err { color: #f85149; }
</style>
</head>
<body>
<h1>fsr — live pipeline dashboard</h1>
<div class="sub">polls <code>/v1/timeseries</code> and <code>/v1/flightrecorder</code> every 2s
  · <span id="err"></span><span id="stamp"></span></div>

<h2>pinned</h2><div id="pinned" class="grid"></div>
<h2>recent operations <span id="opstat" class="sub"></span></h2><div id="flight"></div>
<h2>slow operations (span trees retained)</h2><div id="slow"></div>
<h2>all series</h2><div id="all" class="grid"></div>

<script>
"use strict";
const fmt = v => {
  if (!isFinite(v)) return "-";
  const a = Math.abs(v);
  if (a >= 1e9) return (v/1e9).toFixed(1)+"G";
  if (a >= 1e6) return (v/1e6).toFixed(1)+"M";
  if (a >= 1e3) return (v/1e3).toFixed(1)+"k";
  if (a >= 1 || a === 0) return v.toFixed(a >= 100 ? 0 : 2);
  if (a >= 1e-3) return (v*1e3).toFixed(2)+"m";
  return (v*1e6).toFixed(1)+"µ";
};
function spark(pts) {
  if (!pts || pts.length < 2) return "<svg></svg>";
  const w = 280, h = 36, pad = 2;
  let lo = Infinity, hi = -Infinity;
  for (const p of pts) { lo = Math.min(lo, p.v); hi = Math.max(hi, p.v); }
  if (hi === lo) { hi += 1; lo -= 1; }
  const t0 = pts[0].t, t1 = pts[pts.length-1].t || t0 + 1;
  const x = t => pad + (w - 2*pad) * (t - t0) / Math.max(1, t1 - t0);
  const y = v => h - pad - (h - 2*pad) * (v - lo) / (hi - lo);
  const line = pts.map((p,i) => (i?"L":"M") + x(p.t).toFixed(1) + " " + y(p.v).toFixed(1)).join("");
  const area = line + "L" + x(t1).toFixed(1) + " " + (h-pad) + "L" + x(t0).toFixed(1) + " " + (h-pad) + "Z";
  return '<svg viewBox="0 0 '+w+' '+h+'"><path class="fill" d="'+area+'"/><path class="spark" d="'+line+'"/></svg>';
}
function panel(name, pts, unit) {
  const last = pts && pts.length ? pts[pts.length-1].v : NaN;
  return '<div class="panel"><div class="name">'+name+'</div><div class="val">'
    + fmt(last) + (unit||"") + '</div>' + spark(pts) + '</div>';
}
// Pinned panels: regexes over retained series names; ratio panels divide
// the latest points of two series.
const PINNED = [
  {re: /^fsr_verify_duration_seconds\{.*\}_p(50|99)$/, unit: "s"},
  {re: /^fsr_instances_resident$/},
  {re: /^fsr_campaign_scenarios_total\{outcome=/},
  {re: /^fsr_simnet_(faults_injected|msgs_dropped)_total$/},
  {re: /^fsr_scc_components_total$/},
  {re: /^fsr_(goroutines|heap_alloc_bytes)$/},
];
function render(ts, fl) {
  const byName = {};
  for (const s of ts.series) byName[s.name] = s;
  let pinned = "";
  for (const p of PINNED)
    for (const s of ts.series)
      if (p.re.test(s.name)) pinned += panel(s.name, s.points, p.unit);
  // delta-vs-full discharge ratio from the daemon's two rate series.
  const d = byName["fsr_delta_solves_total"], f = byName["fsr_full_solves_total"];
  if (d && f) {
    const pts = d.points.map((p, i) => {
      const fv = f.points[i] ? f.points[i].v : 0;
      return {t: p.t, v: p.v + fv > 0 ? p.v / (p.v + fv) : 1};
    });
    pinned += panel("delta / (delta+full) discharge ratio", pts);
  }
  document.getElementById("pinned").innerHTML =
    pinned || '<div class="sub">no pinned series yet — drive some load</div>';
  let all = "";
  for (const s of ts.series) all += panel(s.name, s.points);
  document.getElementById("all").innerHTML = all || '<div class="sub">no series yet</div>';

  if (fl) {
    document.getElementById("opstat").textContent =
      "— " + fl.total + " recorded, " + fl.slow_total + " slow (≥" + fl.slow_threshold_ms + "ms)";
    let rows = "<table><tr><th>#</th><th>kind</th><th>detail</th><th>size</th>" +
               "<th>ms</th><th>verdict</th><th>counters</th></tr>";
    for (const op of (fl.ops || []).slice(0, 25)) {
      const ctr = op.counters
        ? Object.entries(op.counters).map(([k,v]) => k+"="+v).join(" ") : "";
      rows += "<tr><td>"+op.seq+"</td><td>"+op.kind+"</td><td>"+(op.detail||"")+"</td><td>"
        + (op.size||"")+"</td><td class="+(op.slow?'"slow"':'"ok"')+">"+op.duration_ms.toFixed(2)
        + "</td><td>"+(op.verdict||"")+"</td><td>"+ctr+"</td></tr>";
    }
    document.getElementById("flight").innerHTML = rows + "</table>";
    let slow = "";
    const tree = (n, d) => {
      let s = " ".repeat(d*2) + n.name + " " + fmt(n.dur_us/1e6) + "s" +
        (n.attrs ? " " + Object.entries(n.attrs).map(([k,v]) => k+"="+v).join(" ") : "") + "\n";
      for (const c of (n.children||[])) s += tree(c, d+1);
      return s;
    };
    for (const op of (fl.slow || []).slice(0, 10)) {
      let spans = "";
      for (const n of (op.spans||[])) spans += tree(n, 0);
      slow += "<details><summary>#"+op.seq+" "+op.kind+" "+(op.detail||"")+" — "
        + op.duration_ms.toFixed(2)+"ms</summary><pre>"+spans+"</pre></details>";
    }
    document.getElementById("slow").innerHTML =
      slow || '<div class="sub">nothing over the threshold yet</div>';
  }
}
async function tick() {
  try {
    const ts = await (await fetch("/v1/timeseries")).json();
    let fl = null;
    try { fl = await (await fetch("/v1/flightrecorder")).json(); } catch (e) {}
    render(ts, fl);
    document.getElementById("err").textContent = "";
    document.getElementById("stamp").textContent = "updated " + new Date().toLocaleTimeString();
  } catch (e) {
    document.getElementById("err").textContent = "fetch failed: " + e + " ";
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
