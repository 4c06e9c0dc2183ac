# Shared by scripts/record_*_baseline.sh (source it, then call
# record_baseline). A baseline describes one commit, so it refuses to run
# over modified tracked files: the bench stamps its JSON with
# `git describe --dirty`. The bench writes to a temporary file next to the
# target, which is moved into place only when the bench succeeded; writing
# straight into the tracked file would modify it before `git describe` runs
# and stamp every recording -dirty.
#
# Usage: record_baseline <bench target> <output json> [bench flags...]
record_baseline() {
  local target="$1" out="$2"
  shift 2
  git update-index -q --refresh
  if ! git diff-index --quiet HEAD --; then
    echo "$0: tracked files are modified; record baselines at a clean commit" >&2
    exit 1
  fi

  cmake --preset release
  cmake --build --preset release -j "$(nproc)" --target "${target}"

  local tmp
  tmp="$(mktemp "${out}.XXXXXX")"
  trap "rm -f '${tmp}'" EXIT
  "./build/release/bench/${target}" "$@" > "${tmp}"
  chmod 644 "${tmp}"
  mv "${tmp}" "${out}"
  echo "wrote ${out}" >&2
}
