#!/usr/bin/env bash
# The README quick-start chain must print the README's pinned line and,
# with short repeat and linearity batches, write byte-identical
# artifacts for the default config and seed. What the sums pin:
# - scan.txt, run1.calibration.txt, run1.record.txt, report.json: the
#   default chain, whose calibration reads the analytic carrier phase;
# - ml.txt: the three-surface synthesis (three HOM pairs, three fringe
#   packets); ml.calibration.txt and ml.record.txt its calibration on
#   the same analytic phase, read from a config that still names the
#   retired `total_power` and `phase_method` fields, which are dropped;
#   ml.report.json its three cluster refinements;
# - nf.*: the default config with `noise.enabled: false`, the one way to
#   switch counting noise off: expected counts per bin, no Poisson draw;
# - cs.txt: synthesis on close surfaces (10/40/70 um), whose coherence
#   supports overlap and the first is clipped at the scan start;
# - fs.record.txt, fs.report.json: the default sample 20 cm along the
#   stage (scan 200000-200300 um); this covers position rounding far
#   along the stage, where a resampled grid step differs from
#   grid_step by more than 1e-9 of it through float rounding alone;
# - rep.results.json: a seed ledger plus a summary; repf.results.json
#   the ledger entry of a flagged outlier run; lin.results.json a step
#   ledger with each step's fringe-order flag as `outlier`;
#   rep.separations.txt, lin.measured.txt, lin.deviations.txt their
#   plot data.
# The table sums are of table format version 2, whose columns are
# binary float64 after a text header. A trace holds the three recorded
# channels; its noise-free truth stays in memory. The reports hold no
# peak count and no copy of separation_m. A trace's `# metadata` holds
# the seeds and the Poisson switch, and a record's `# quality` holds no
# copy of `# grid_step`, and no table's `# config` names a retired field.
#
# Run it from any directory: bash .github/readme_chain.sh
# It finds the repository from its own path, runs the chain in a temporary
# directory that it removes on exit, and fails on the first step or sum
# that does not match.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
readme="$root/README.md"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
python -m qolcr.cli simulate --output scan.txt
python -m qolcr.cli simulate --config "$root/perfbench/multilayer.json" --output ml.txt
python -m qolcr.cli calibrate ml.txt --output ml
python -m qolcr.cli calibrate scan.txt --output run1
line=$(python -m qolcr.cli measure run1.record.txt --output report.json | tail -n 1)
echo "$line"
grep -qxF -- "$line" "$readme"
python -m qolcr.cli measure ml.record.txt --output ml.report.json
python -m qolcr.cli repeat --runs 3 --output rep
python -m qolcr.cli repeat --runs 3 --force-ambiguity 1 --output repf
python -m qolcr.cli linearity --steps 3 --output lin
echo '{"noise": {"enabled": false}}' > nf.json
python -m qolcr.cli simulate --config nf.json --output nf.txt
python -m qolcr.cli calibrate nf.txt --output nf
python -m qolcr.cli measure nf.record.txt --output nf.report.json
echo '{"sample": {"surfaces": [{"reflectivity": 0.6, "position_um": 10.0}, {"reflectivity": 0.05, "position_um": 40.0}, {"reflectivity": 0.6, "position_um": 70.0}]}}' > cs.json
python -m qolcr.cli simulate --config cs.json --output cs.txt
echo '{"sample": {"surfaces": [{"reflectivity": 0.6, "position_um": 200009.886}, {"reflectivity": 0.6, "position_um": 200290.114}]}, "scan": {"start_um": 200000.0, "stop_um": 200300.0}}' > fs.json
python -m qolcr.cli simulate --config fs.json --output fs.txt
python -m qolcr.cli calibrate fs.txt --output fs
python -m qolcr.cli measure fs.record.txt --output fs.report.json
sha256sum -c - <<'EOF'
d0d9fa5683581a1e62ce20ca8ef8df28cdd41203c17d85b21ffcfccf269aaf5c  scan.txt
36f62b28aff3bb2f9834e93bb1020dc329036f85dbf4e63867003e327028c77b  ml.txt
8d62b12f069b342ea57b5e79f35121353aacba85548c49ae098ed187df2b8111  ml.calibration.txt
b8de73e11c4e7722e9e962b9c0e6dbdfdff9060bbb2d95ec239fb7e051cd6570  ml.record.txt
0372c2100b9c32999bfaec72efd069920f6a4630c9b20611842f573590df3f42  run1.calibration.txt
d7a9856c1f9e8caaccf8cc0e2a36616df00deac79524ad4e56c29ced1467f32d  run1.record.txt
d83e4fc80d2bc3d02864d98b40c7cc46f910722a287941350d98a41e0b6ffaea  report.json
3142ad0853a297b3c7831bf387aa6522eedafce95f4ea22b030495a891d86801  ml.report.json
1b2221f97b5ca00edfe480e05955b0c8d411c2f93dc429f6946ed841662fafad  rep.results.json
348f9db1e7e9c15082639dffe19256d778272fc73c6d5f338d74051258d71362  rep.separations.txt
ef93cd1a2be154ca2e5a589d04eaa0d0caeadc359d2f4601110c5821c130e6e4  lin.results.json
05a2b2d454a5a8f80686d16126c4c847a2ad383bdccce3bde457ec132a777bdd  lin.measured.txt
bf0abe79f2d69a4d5057b6317d7b2a8c6b7d890f42e02934dc9bfbf313bcb5b2  lin.deviations.txt
cc9502b8d53f646f745476e172975acad19e476118bcef18bc3b7e28b6bb9587  nf.txt
011413b3521ef31ebdf4ecef364b6fe1aa7cd48a12f644de8372750652677e1b  nf.calibration.txt
8229e4ce876968c44c74844346a8e67de1330a15ccf11dbb208bc48a1bcda6a8  nf.record.txt
07913c40177f3e1a1c7c2389e6c530d715f8b750d248ff06ce2f212ba1edb46d  nf.report.json
177f97d6ac75375dd5d8866fa0986e8d32c052acdf4c12c4c6a337fc4365a1df  cs.txt
277506dd887e87d18c53ef5be48433ff630618895d088acda537c9541a9029f4  fs.record.txt
07d58338910afeba967a16cdb26142d895e20d8439c16839d7ec306e86d301ab  fs.report.json
dbcab46f97694621d80bebcb593d06ff30181ce809f2d91543206c8363e8f0ae  repf.results.json
EOF
