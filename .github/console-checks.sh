#!/usr/bin/env bash
# padpkit's console script in fresh processes, offline, in a new temporary directory.
# Needs `padpkit` on PATH (installed, or an exported shell function) and python with
# numpy.  Usage: bash .github/console-checks.sh
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sc="$repo/scenarios/default.json"
pair="$repo/scenarios/corridor_pair.json"
cd "$(mktemp -d)"
echo "console checks in $PWD"
mc=(montecarlo --scenario "$sc" --sweep output-snr --values 20,30 --trials 5 --seed 1
    --randomize-angle)
mc_pair=(montecarlo --scenario "$pair" --sweep separation --values 30,90 --trials 5 --seed 1
         --off-grid-delay)
# Call each helper as a simple command: bash ignores -e inside a function called
# within &&, || or if, so a failing check there would not stop the script.

# pipeline DIR: the paper's loop (simulate, estimate, two bounds, offset study, two
# Monte Carlo sweeps), writing into DIR
pipeline() {
  mkdir -p "$1"
  padpkit simulate --scenario "$sc" --out "$1/scan.padp" --cfr-out "$1/scan.npy" --seed 1
  padpkit estimate --padp "$1/scan.padp" --cfr "$1/scan.npy" --scenario "$sc" \
    --methods o1,o2,haed,haed+ --out "$1/estimates.csv"
  padpkit crlb --scenario "$sc" --sweep true-angle --values 0:10:21 --out "$1/crlb.csv"
  padpkit crlb --scenario "$pair" --sweep separation --values 0:180:37 --out "$1/crlb_pair.csv"
  padpkit offset-study --scenario "$sc" --n 5 --out "$1/offset.csv"
  padpkit "${mc[@]}" --methods o1,o2,haed,haed+ --out "$1/mc.csv"
  padpkit "${mc_pair[@]}" --methods haed,haed+ --out "$1/mc_pair.csv"
}

# twice G: simulate and estimate G.json into G_1 and G_2; the four outputs match
twice() {
  local d f
  for d in "$1_1" "$1_2"; do
    mkdir "$d"
    padpkit simulate --scenario "$1.json" --out "$d/scan.padp" --cfr-out "$d/scan.npy" --seed 1
    padpkit estimate --padp "$d/scan.padp" --cfr "$d/scan.npy" --scenario "$1.json" \
      --methods o1,o2,haed,haed+ --out "$d/estimates.csv"
  done
  for f in scan.padp scan.npy estimates.csv estimates.csv.manifest.json; do
    cmp "$1_1/$f" "$1_2/$f"
  done
}

# refuse OUT [PATTERN] -- CMD...: CMD exits 2, its stderr names PATTERN, and neither
# OUT nor its manifest is written
refuse() {
  local out=$1 pattern=$2 rc=0
  shift 2
  if [ "$pattern" = -- ]; then pattern=""; else shift; fi
  "$@" 2> refused.err || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "$pattern" refused.err || [ -e "$out" ] \
    || [ -e "$out.manifest.json" ]; then
    cat refused.err >&2
    echo "not refused (exit $rc, expected 2 naming '$pattern', no $out): $*" >&2
    exit 1
  fi
}

# byte-for-byte rerun contract, across processes
pipeline .
pipeline rerun
test "$(ls rerun | wc -l)" -eq 14
for f in scan.padp scan.npy estimates.csv crlb.csv crlb_pair.csv offset.csv mc.csv mc_pair.csv; do
  cmp "$f" "rerun/$f"
done
for f in estimates.csv crlb.csv crlb_pair.csv offset.csv mc.csv mc_pair.csv; do
  cmp "$f.manifest.json" "rerun/$f.manifest.json"
done
# trials on two threads draw from their own generators: the CSVs do not move
mkdir threads
PADPKIT_THREADS=2 padpkit "${mc[@]}" --methods o1,o2,haed,haed+ --out threads/mc.csv
PADPKIT_THREADS=2 padpkit "${mc_pair[@]}" --methods haed,haed+ --out threads/mc_pair.csv
cmp mc.csv threads/mc.csv
cmp mc_pair.csv threads/mc_pair.csv
# maps, on-grid or off-grid, do not depend on whether haed+ reads their responses:
# the o1/o2/haed rows are the same without haed+, and so are offset-study's
padpkit "${mc[@]}" --methods o1,o2,haed --out mc_base.csv
grep -v ',haed+,' mc.csv | cmp - mc_base.csv
padpkit "${mc_pair[@]}" --methods haed --out mc_pair_base.csv
grep -v ',haed+,' mc_pair.csv | cmp - mc_pair_base.csv
padpkit offset-study --scenario "$sc" --n 5 --methods o1,o2,haed,haed+ --out offset_plus.csv
grep -v '^haed+,' offset_plus.csv | cmp - offset.csv
# the separation sweep's 0 deg point (coincident arrivals) is flagged, and the haed+
# factor, a library constant, is still recorded in the manifest
grep -q ',singular$' crlb_pair.csv
grep -q '"upsample": 16' mc.csv.manifest.json

# copies that rerun byte for byte too: noise-free on-grid (exact zeros off the
# arrival's bin) and off-grid; noisy off-grid, whose delay ramps are transformed afresh
# on every map; the pair scenario, whose two arrivals share one delay bin, and its
# noise-free copy; a tabulated pattern (a 10 deg Gaussian beam every 0.05 deg).
# Then the copies refused when loaded.
sed -e 's/"sigma2": 0.1/"sigma2": 0.0/' "$sc" > ongrid.json
sed -e 's/"tau_ns": 25.0/"tau_ns": 25.3/' ongrid.json > offgrid.json
sed -e 's/"tau_ns": 25.0/"tau_ns": 25.3/' "$sc" > offgrid_noisy.json
cp "$pair" pair.json
sed -e 's/"sigma2": 10.0/"sigma2": 0.0/' "$pair" > pair_free.json
sed -e 's/"tau_ns": 25.0/"tau_ns": 1e6/' "$sc" > late.json  # past the 500.5 ns window
sed -e 's/"hpbw_deg": 10.0/"hpbw_deg": 1e-7/' "$sc" > narrow.json  # below 0.1 deg
sed -e 's/"hpbw_deg": 10.0/"hpbw_deg": 0.45/' "$sc" > step.json  # no gain one step out
sed -e 's/"sigma2": 0.1}/"sigma2": 0.1, "g_tx": 0}/' "$sc" > no_gain.json
grep -q '"sigma2": 0.0' ongrid.json
grep -q '"tau_ns": 25.3' offgrid.json
grep -q '"sigma2": 0.1' offgrid_noisy.json
grep -q '"tau_ns": 25.3' offgrid_noisy.json
grep -q '"sigma2": 0.0' pair_free.json
grep -q '"tau_ns": 1e6' late.json
grep -q '"hpbw_deg": 1e-7' narrow.json
grep -q '"hpbw_deg": 0.45' step.json
grep -q '"g_tx": 0' no_gain.json
printf 'not a padp file\n' > bad.padp
printf 'not a numpy file\n' > bad.npy
python - "$sc" <<'PY'
import json, sys
import numpy as np

deg = np.arange(-180.0, 180.0, 0.05)
kappa = np.log(np.sqrt(2.0)) / (1.0 - np.cos(np.radians(5.0)))  # half power at +-5 deg
amp = 10.0 * np.exp(kappa * (np.cos(np.radians(deg)) - 1.0))  # 20 dB peak power gain
with open("pat.csv", "w") as fh:
    fh.write("offset_deg,gain\n" + "".join(f"{d:.2f},{g:.17g}\n" for d, g in zip(deg, amp)))
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
doc["pattern"] = {"kind": "tabulated", "table_path": "pat.csv"}
with open("tabulated.json", "w") as fh:
    json.dump(doc, fh, indent=2)
line, payload = open("scan.padp", "rb").read().split(b"\n", 1)
header = json.loads(line)
header["delay_step_ns"] = 1e308  # the last of 1001 delays overflows
with open("far.padp", "wb") as fh:
    fh.write(json.dumps(header).encode() + b"\n" + payload)
PY
for g in ongrid offgrid offgrid_noisy pair pair_free tabulated; do
  twice "$g"
done

# inputs refused when parsed or loaded
one=(montecarlo --scenario "$sc" --sweep output-snr)
refuse seed.csv --seed -- padpkit "${one[@]}" --values 30 --trials 2 --seed -1 --out seed.csv
refuse bad.csv 'PADP header' -- padpkit estimate --padp bad.padp --scenario "$sc" --out bad.csv
refuse bad_cfr.csv '--cfr: bad.npy:' -- padpkit estimate --padp scan.padp --cfr bad.npy \
  --scenario "$sc" --methods haed+ --out bad_cfr.csv
refuse bad_threshold.csv --threshold-db -- padpkit estimate --padp scan.padp --scenario "$sc" \
  --threshold-db nan --out bad_threshold.csv
refuse late.padp 'mpcs[0].tau_ns' -- padpkit simulate --scenario late.json --out late.padp
refuse twice.csv 'given twice' -- padpkit "${one[@]}" --values 30 --trials 2 --methods haed,haed \
  --out twice.csv
refuse bad_mc.csv randomize_angle -- padpkit montecarlo --scenario "$sc" --sweep true-angle \
  --values 0,90 --trials 2 --randomize-angle --out bad_mc.csv
refuse inf.csv --values -- padpkit "${one[@]}" --values inf --trials 2 --out inf.csv
refuse big_gain.csv --gmax-db -- padpkit estimate --padp scan.padp --gmax-db 1e5 --hpbw-deg 10 \
  --out big_gain.csv
refuse wide.csv --hpbw-deg -- padpkit estimate --padp scan.padp --gmax-db 20 --hpbw-deg 400 \
  --out wide.csv
refuse step.csv '--hpbw-deg: expected a beam' -- padpkit estimate --padp scan.padp --gmax-db 20 \
  --hpbw-deg 0.45 --out step.csv  # no gain one of the PADP's 10 deg steps out
refuse no_trials.csv --trials -- padpkit "${one[@]}" --values 30 --trials 0 --out no_trials.csv
refuse narrow.padp pattern.hpbw_deg -- padpkit simulate --scenario narrow.json --out narrow.padp
refuse step.padp pattern.hpbw_deg -- padpkit simulate --scenario step.json --out step.padp
refuse no_gain.padp g_tx -- padpkit simulate --scenario no_gain.json --out no_gain.padp
refuse far.csv delay_step_ns -- padpkit estimate --padp far.padp --scenario "$sc" --out far.csv
refuse underscore.csv --n -- padpkit offset-study --scenario "$sc" --n 1_0 --out underscore.csv
refuse many.csv --n -- padpkit offset-study --scenario "$sc" --n 1000001 --out many.csv  # cap + 1

# every manifest written is strict JSON: no Infinity or NaN
python - <<'PY'
import json, pathlib

def refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")

paths = sorted(pathlib.Path(".").rglob("*.manifest.json"))
assert paths, "no manifests written"
for path in paths:
    json.loads(path.read_text(), parse_constant=refuse)
print(f"{len(paths)} manifests parse as strict JSON")
PY
