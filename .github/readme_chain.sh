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
# The table sums are of table format version 2: a text header, then
# binary float64 columns.
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
df7dd0325ed2951c4b01c7b4c62609778f62dc3b952b89cad6aa1cbb41a84256  ml.record.txt
0372c2100b9c32999bfaec72efd069920f6a4630c9b20611842f573590df3f42  run1.calibration.txt
7ea2115101830d170d773ef3c27489bf785bec746ea1084d24fa39f001590063  run1.record.txt
6dbc5350b6461092bf1b564a865843364ba7dcd88fa981e6d56a635332ccf8ab  report.json
95afea0469dfed4f06cc936a6d915ce5a241f39d9e23b5a89ff41865c5ec2b34  ml.report.json
6ddcf7b59186914194c00dca9dcba26953b5786e008c7dc6e969cd7daa0fd496  rep.results.json
8e6461b221ab73ceef759db05e81d3023fd33cba3881d8b2af6667288799d68b  rep.separations.txt
196abd30ad3e04a7d958ba83427247a933cdceb943b597b47679e0395fa3bd52  lin.results.json
2d8235c5059cfa70e5875bb03e6b5a80aad09cc3ea4334c6ccf735c137aaa045  lin.measured.txt
8e4dcc08f139deb6046ad281337edafd769d47fcbe6fc73523c7583d9380f7b8  lin.deviations.txt
cc9502b8d53f646f745476e172975acad19e476118bcef18bc3b7e28b6bb9587  nf.txt
011413b3521ef31ebdf4ecef364b6fe1aa7cd48a12f644de8372750652677e1b  nf.calibration.txt
80d5cca71c4ad371ddea89c9ff27e978c4448f763315870abfcd18013da7238f  nf.record.txt
ef9053889bd2f29127687f95b93c60a034cb97b1075052a79f6c6b55421f1acd  nf.report.json
177f97d6ac75375dd5d8866fa0986e8d32c052acdf4c12c4c6a337fc4365a1df  cs.txt
fe10193f5bbf4eb278fbab987dc82d1ab58d6b82d40c7f1d6af4b3d3fc4a9ed9  fs.record.txt
0f756dd76192a7c3ea44c1a0dc54915efdd07f9ee50546cc3d407bf140b1eaf4  fs.report.json
1312bb842cab19de74ad8ab851caa8302725b9c81b3c7b2b3235cf79fef9ed73  repf.results.json
EOF
