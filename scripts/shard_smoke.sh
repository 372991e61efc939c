#!/bin/sh
# Loopback smoke of the sharded keyed service: boot a 2-shard x 3-process
# durable regnode cluster (-data), drive keyed writes and reads across both
# shards with regctl (binary client protocol), kill -9 one process per
# shard and prove the client fails over while both quorum groups keep
# serving and writing, then start the killed processes again with the same
# command line — nothing else — and require every acknowledged value to
# read back through the restarted processes' own client ports.
# CI runs this on every PR; it also runs standalone from the repo root.
set -e

MESH="127.0.0.1:7600,127.0.0.1:7601,127.0.0.1:7602;127.0.0.1:7610,127.0.0.1:7611,127.0.0.1:7612"
CLIENTS="127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702;127.0.0.1:7710,127.0.0.1:7711,127.0.0.1:7712"
KEYS="alpha beta gamma delta epsilon zeta eta theta"
# The two processes that die and come back (shard 0 id 1, shard 1 id 2).
RESTARTED="127.0.0.1:7701 127.0.0.1:7712"

bin="$(mktemp -d)"
go build -o "$bin/regnode" ./cmd/regnode
go build -o "$bin/regctl" ./cmd/regctl

node() { "$bin/regnode" -peers "$MESH" -clients "$CLIENTS" -shard "$1" -id "$2" -data "$bin/data" & }

pids=""
for s in 0 1; do
  for i in 0 1 2; do
    node $s $i
    pids="$pids $!"
  done
done
trap 'kill $pids 2>/dev/null || true; rm -rf "$bin"' EXIT
sleep 1

# want KEY prints the value the last acknowledged write gave KEY.
want() {
  case "$1" in
  alpha) [ -n "$rewritten" ] && echo rewritten || echo "value-alpha" ;;
  omega) echo late ;;
  *) echo "value-$1" ;;
  esac
}
rewritten=""

# Eight keys hash-spread over the two quorum groups; every value must
# read back exactly, through whichever shard owns it.
for k in $KEYS; do
  "$bin/regctl" -cluster "$CLIENTS" put "$k" "value-$k"
done
for k in $KEYS; do
  got="$("$bin/regctl" -cluster "$CLIENTS" get "$k")"
  [ "$got" = "$(want "$k")" ] || { echo "key $k: got '$got'" >&2; exit 1; }
done

# One process down per shard, the hard way: both groups keep a 2-of-3
# majority and the client fails over past the dead members.
set -- $pids
kill -9 $2 $6
sleep 0.3
for k in $KEYS; do
  got="$("$bin/regctl" -cluster "$CLIENTS" get "$k")"
  [ "$got" = "$(want "$k")" ] || { echo "key $k after kills: got '$got'" >&2; exit 1; }
done
# The survivors move on: an overwrite and a key the dead have never seen.
"$bin/regctl" -cluster "$CLIENTS" put alpha rewritten
rewritten=yes
"$bin/regctl" -cluster "$CLIENTS" put omega late
[ "$("$bin/regctl" -cluster "$CLIENTS" get alpha)" = "rewritten" ] || {
  echo "write after kills did not read back" >&2
  exit 1
}

# The same two command lines again. Each process recovers from its log and
# rejoins by itself; a key is then served, with its latest value, by
# exactly one of the two — the one on its shard (the other answers wrong
# shard) — and that one must reach a quorum of its own to answer.
node 0 1
pids="$pids $!"
node 1 2
pids="$pids $!"
serves() {
  for k in $KEYS; do
    "$bin/regctl" -cluster "$1" get "$k" >/dev/null 2>&1 && return 0
  done
  return 1
}
for addr in $RESTARTED; do
  tries=0
  until serves "$addr"; do
    tries=$((tries + 1))
    [ "$tries" -lt 50 ] || { echo "restarted $addr serves no key" >&2; exit 1; }
    sleep 0.1
  done
done
for k in $KEYS omega; do
  served=0
  for addr in $RESTARTED; do
    if got="$("$bin/regctl" -cluster "$addr" get "$k" 2>/dev/null)"; then
      [ "$got" = "$(want "$k")" ] || {
        echo "key $k through restarted $addr: got '$got', want '$(want "$k")'" >&2
        exit 1
      }
      served=$((served + 1))
    fi
  done
  [ "$served" -eq 1 ] || { echo "key $k: served by $served of the restarted processes, want 1" >&2; exit 1; }
done
# And they take writes: through a restarted process's port, read anywhere.
for addr in $RESTARTED; do
  "$bin/regctl" -cluster "$addr" put alpha "via-$addr" 2>/dev/null || true
done
got="$("$bin/regctl" -cluster "$CLIENTS" get alpha)"
case "$got" in
via-127.0.0.1:77*) ;;
*)
  echo "a write through a restarted process reads back '$got'" >&2
  exit 1
  ;;
esac

echo "shard smoke ok: 2 shards x 3 durable processes, 1 per shard killed -9 and restarted from its log, all keys served"
