//! [`SamplerColumn`]: the samplers of a population whose views live in a
//! [`ViewArena`](dslice_core::ViewArena).
//!
//! A runtime that lays node state out by slot keeps each node's view as a
//! row of one arena and everything else a sampler keeps in this column:
//! the owner of each slot and, in an Lpbcast run, each slot's
//! [`LpbcastState`]. For each operation it binds the slot's column entry
//! and arena row into an [`AnySampler`] — the same samplers, running the
//! same code, as an owned one, only over a borrowed view — and drops the
//! binding when the operation returns.

use crate::any::AnySampler;
use crate::lpbcast::LpbcastState;
use crate::sampler::SamplerKind;
use dslice_core::{Entry, NodeId, RowMut, RowView};
use std::mem::size_of;

/// A sampler bound to one arena row and its column entry (see the module
/// docs).
pub type RowSampler<'a, E> = AnySampler<E, RowMut<'a, E>, &'a mut LpbcastState>;

/// Per slot, what a sampler keeps besides its view (see the module docs).
/// Every slot runs the column's one [`SamplerKind`].
#[derive(Debug, Clone)]
pub struct SamplerColumn {
    kind: SamplerKind,
    /// The owner of each slot: what Cyclon, Newscast and the oracle keep.
    owners: Vec<NodeId>,
    /// Lpbcast's eviction stream per slot; empty for the other kinds.
    lpbcast: Vec<LpbcastState>,
}

impl SamplerColumn {
    /// An empty column of `kind` samplers, with room for `slots` before it
    /// grows.
    pub fn with_capacity(kind: SamplerKind, slots: usize) -> Self {
        let lpbcast_slots = if kind == SamplerKind::Lpbcast {
            slots
        } else {
            0
        };
        SamplerColumn {
            kind,
            owners: Vec::with_capacity(slots),
            lpbcast: Vec::with_capacity(lpbcast_slots),
        }
    }

    /// Gives `slot` to a fresh sampler owned by `owner`, first adding the
    /// slot when it is the next one past the column's end. Panics for a
    /// slot further out: slots are added in order, as a slab hands them out.
    pub fn set(&mut self, slot: usize, owner: NodeId) {
        let lpbcast = self.kind == SamplerKind::Lpbcast;
        if slot == self.owners.len() {
            self.owners.push(owner);
            if lpbcast {
                self.lpbcast.push(LpbcastState::new(owner));
            }
        } else {
            self.owners[slot] = owner;
            if lpbcast {
                self.lpbcast[slot] = LpbcastState::new(owner);
            }
        }
    }

    /// The owner of the sampler in `slot`.
    pub fn owner(&self, slot: usize) -> NodeId {
        self.owners[slot]
    }

    /// The sampler in `slot`, bound to `view`, the slot's arena row.
    pub fn bind<'a, E: Entry>(
        &'a mut self,
        slot: usize,
        view: RowView<'a, E>,
    ) -> RowSampler<'a, E> {
        let state = self.lpbcast.get_mut(slot);
        AnySampler::over(self.kind, self.owners[slot], view, || lpbcast(state))
    }

    /// The samplers in slots `a` and `b`, bound to their arena rows, both
    /// at once — the two endpoints of an exchange. `None` when the slots
    /// alias.
    pub fn bind_pair<'a, E: Entry>(
        &'a mut self,
        (a, b): (usize, usize),
        (a_view, b_view): (RowView<'a, E>, RowView<'a, E>),
    ) -> Option<(RowSampler<'a, E>, RowSampler<'a, E>)> {
        let (a_owner, b_owner) = (self.owners[a], self.owners[b]);
        let (a_state, b_state) = match self.lpbcast.get_disjoint_mut([a, b]) {
            Ok([a_state, b_state]) => (Some(a_state), Some(b_state)),
            Err(_) if a == b => return None,
            Err(_) => (None, None),
        };
        Some((
            AnySampler::over(self.kind, a_owner, a_view, || lpbcast(a_state)),
            AnySampler::over(self.kind, b_owner, b_view, || lpbcast(b_state)),
        ))
    }

    /// Heap bytes held: the columns' capacities, whether or not a slot is
    /// in use.
    pub fn heap_bytes(&self) -> usize {
        self.owners.capacity() * size_of::<NodeId>()
            + self.lpbcast.capacity() * size_of::<LpbcastState>()
    }
}

/// The Lpbcast state of a slot, which an Lpbcast column keeps for every
/// slot.
fn lpbcast(state: Option<&mut LpbcastState>) -> &mut LpbcastState {
    state.expect("an Lpbcast column keeps a state per slot")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune_dead;
    use crate::sampler::{ExchangeBuffers, PeerSampler};
    use dslice_core::{AgedId, ViewArena};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KINDS: [SamplerKind; 4] = [
        SamplerKind::Cyclon,
        SamplerKind::Newscast,
        SamplerKind::Lpbcast,
        SamplerKind::UniformOracle,
    ];

    fn aged(id: u64, age: u32) -> AgedId {
        AgedId {
            id: NodeId::new(id),
            age,
        }
    }

    /// Samplers bound from a column and an arena run every operation as
    /// owned samplers of the same kind do: after each exchange — in place
    /// and through the message path — every row holds what the owned view
    /// holds, and both consume the same draws.
    #[test]
    fn bound_samplers_run_as_owned_ones() {
        let n = 12u64;
        for kind in KINDS {
            let mut owned: Vec<AnySampler<AgedId>> = Vec::new();
            let mut column = SamplerColumn::with_capacity(kind, 0);
            let mut arena = ViewArena::with_capacity(5, 0).unwrap();
            for i in 0..n {
                let boot: Vec<AgedId> = (1..=4).map(|k| aged((i + 3 * k) % n, k as u32)).collect();
                owned.push(AnySampler::empty(kind, NodeId::new(i), 5).unwrap());
                owned[i as usize].bootstrap(&boot);
                let slot = i as usize;
                column.set(slot, NodeId::new(i));
                arena.clear(slot);
                column.bind(slot, arena.row_mut(slot)).bootstrap(&boot);
            }
            let same = |owned: &[AnySampler<AgedId>], arena: &ViewArena<AgedId>, what: &str| {
                for (slot, s) in owned.iter().enumerate() {
                    assert_eq!(
                        arena.entries(slot),
                        s.view().entries(),
                        "{kind}: {what}, slot {slot}"
                    );
                }
            };
            same(&owned, &arena, "bootstrap");
            let (mut rng_owned, mut rng_bound) =
                (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
            let (mut bufs_owned, mut bufs_bound) =
                (ExchangeBuffers::default(), ExchangeBuffers::default());
            for round in 0..40 {
                let i = round % n as usize;
                let (me, partner) = (
                    owned[i].schedule_exchange(&mut rng_owned),
                    column
                        .bind(i, arena.row_mut(i))
                        .schedule_exchange(&mut rng_bound),
                );
                assert_eq!(me, partner, "{kind}: round {round}");
                let Some(partner) = partner else { continue };
                let j = partner.as_u64() as usize;
                let (own_i, own_j) = (aged(i as u64, 0), aged(j as u64, 0));
                if round % 2 == 0 {
                    let [x, y] = owned.get_disjoint_mut([i, j]).unwrap();
                    x.exchange_local(own_i, y, own_j, &mut rng_owned, &mut bufs_owned);
                    let rows = arena.row_pair_mut(i, j).unwrap();
                    let (mut x, mut y) = column.bind_pair((i, j), rows).unwrap();
                    x.exchange_local(own_i, &mut y, own_j, &mut rng_bound, &mut bufs_bound);
                } else {
                    let request = owned[i]
                        .initiate_with(partner, own_i, &mut rng_owned)
                        .entries;
                    let reply = owned[j].handle_request(own_j, own_i.id, &request);
                    owned[i].handle_reply(partner, &reply);
                    let mut x = column.bind(i, arena.row_mut(i));
                    let request = x.initiate_with(partner, own_i, &mut rng_bound).entries;
                    let reply = column
                        .bind(j, arena.row_mut(j))
                        .handle_request(own_j, own_i.id, &request);
                    column
                        .bind(i, arena.row_mut(i))
                        .handle_reply(partner, &reply);
                }
                same(&owned, &arena, "exchange");
            }
            let is_alive = |id: NodeId| !id.as_u64().is_multiple_of(4);
            let refill = [aged(7, 0), aged(0, 0), aged(9, 2)];
            owned[1].refill(&refill);
            column.bind(1, arena.row_mut(1)).refill(&refill);
            for (slot, s) in owned.iter_mut().enumerate() {
                s.remove_dead(&is_alive);
                prune_dead(&mut arena.row_mut(slot), is_alive);
            }
            same(&owned, &arena, "refill and prune");
        }
    }

    #[test]
    fn a_column_keeps_an_lpbcast_state_only_in_lpbcast_runs() {
        let mut cyclon = SamplerColumn::with_capacity(SamplerKind::Cyclon, 4);
        let mut lpbcast = SamplerColumn::with_capacity(SamplerKind::Lpbcast, 4);
        for slot in 0..4 {
            cyclon.set(slot, NodeId::new(slot as u64));
            lpbcast.set(slot, NodeId::new(slot as u64));
        }
        assert_eq!(cyclon.heap_bytes(), 4 * size_of::<NodeId>());
        assert_eq!(
            lpbcast.heap_bytes(),
            4 * (size_of::<NodeId>() + size_of::<LpbcastState>())
        );
        cyclon.set(2, NodeId::new(9));
        assert_eq!(cyclon.owner(2), NodeId::new(9));
        let (mut first, mut second) = (
            ViewArena::<AgedId>::with_capacity(3, 1).unwrap(),
            ViewArena::with_capacity(3, 1).unwrap(),
        );
        first.clear(0);
        second.clear(0);
        for column in [&mut cyclon, &mut lpbcast] {
            let rows = (first.row_mut(0), second.row_mut(0));
            assert!(column.bind_pair((1, 1), rows).is_none(), "aliasing slots");
        }
    }
}
