//! User → author subscription relation.
//!
//! Since the live-churn redesign the relation is **mutable**: users can be
//! added, removed (tombstoned — user ids are stable and never reused), and
//! individual follow edges can be flipped at runtime. The multi-user engine
//! routes every post through it and keeps no other copy of it.

use firehose_stream::AuthorId;

/// Dense user identifier.
pub type UserId = u32;

/// Errors constructing or mutating [`Subscriptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionError {
    /// A subscription referenced an author id ≥ the author universe size.
    AuthorOutOfRange {
        /// The offending user.
        user: UserId,
        /// The offending author id.
        author: AuthorId,
        /// The author universe size.
        author_count: usize,
    },
    /// An operation referenced a user id ≥ the user count.
    UserOutOfRange {
        /// The offending user id.
        user: UserId,
        /// The user universe size.
        user_count: usize,
    },
    /// An operation referenced a removed (tombstoned) user.
    UserRemoved {
        /// The tombstoned user id.
        user: UserId,
    },
}

impl std::fmt::Display for SubscriptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::AuthorOutOfRange {
                user,
                author,
                author_count,
            } => write!(
                f,
                "user {user} subscribes to author {author} outside universe of {author_count}"
            ),
            Self::UserOutOfRange { user, user_count } => {
                write!(f, "user {user} outside universe of {user_count} users")
            }
            Self::UserRemoved { user } => write!(f, "user {user} was removed"),
        }
    }
}

impl std::error::Error for SubscriptionError {}

/// The subscription relation: which authors each user follows, with the
/// inverted author → subscribers index used to route arriving posts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscriptions {
    per_user: Vec<Vec<AuthorId>>,
    subscribers: Vec<Vec<UserId>>,
    /// `false` = tombstoned by [`remove_user`](Self::remove_user). Removed
    /// users keep their (stable) id but follow nothing and receive nothing.
    active: Vec<bool>,
}

impl Subscriptions {
    /// Build from per-user author lists over an author universe of size
    /// `author_count`. Lists are sorted and deduplicated; every user starts
    /// active.
    pub fn new(
        author_count: usize,
        per_user: impl IntoIterator<Item = Vec<AuthorId>>,
    ) -> Result<Self, SubscriptionError> {
        let mut users: Vec<Vec<AuthorId>> = per_user.into_iter().collect();
        let mut subscribers: Vec<Vec<UserId>> = vec![Vec::new(); author_count];
        for (u, subs) in users.iter_mut().enumerate() {
            subs.sort_unstable();
            subs.dedup();
            for &a in subs.iter() {
                if (a as usize) >= author_count {
                    return Err(SubscriptionError::AuthorOutOfRange {
                        user: u as UserId,
                        author: a,
                        author_count,
                    });
                }
                subscribers[a as usize].push(u as UserId);
            }
        }
        let active = vec![true; users.len()];
        Ok(Self {
            per_user: users,
            subscribers,
            active,
        })
    }

    /// Number of user slots, **including** tombstoned users (ids are stable).
    pub fn user_count(&self) -> usize {
        self.per_user.len()
    }

    /// Number of non-tombstoned users.
    pub fn active_user_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Size of the author universe.
    pub fn author_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Sorted authors user `u` follows (empty for tombstoned users).
    pub fn authors_of(&self, u: UserId) -> &[AuthorId] {
        &self.per_user[u as usize]
    }

    /// Sorted users following author `a` (post routing); empty for an
    /// author outside the universe.
    pub fn subscribers_of(&self, a: AuthorId) -> &[UserId] {
        self.subscribers.get(a as usize).map_or(&[], Vec::as_slice)
    }

    /// `true` iff user `u` follows author `a`.
    pub fn is_subscribed(&self, u: UserId, a: AuthorId) -> bool {
        self.per_user[u as usize].binary_search(&a).is_ok()
    }

    /// `true` iff user `u` exists and has not been removed.
    pub fn is_active(&self, u: UserId) -> bool {
        self.active.get(u as usize).copied().unwrap_or(false)
    }

    fn check_user(&self, u: UserId) -> Result<(), SubscriptionError> {
        if (u as usize) >= self.per_user.len() {
            return Err(SubscriptionError::UserOutOfRange {
                user: u,
                user_count: self.per_user.len(),
            });
        }
        if !self.active[u as usize] {
            return Err(SubscriptionError::UserRemoved { user: u });
        }
        Ok(())
    }

    fn check_author(&self, u: UserId, a: AuthorId) -> Result<(), SubscriptionError> {
        if (a as usize) >= self.subscribers.len() {
            return Err(SubscriptionError::AuthorOutOfRange {
                user: u,
                author: a,
                author_count: self.subscribers.len(),
            });
        }
        Ok(())
    }

    /// Append a new user with the given (unsorted, possibly duplicated)
    /// author list; returns the new user's id. Ids of removed users are
    /// never reused.
    pub(crate) fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        let u = self.per_user.len() as UserId;
        let mut subs: Vec<AuthorId> = authors.to_vec();
        subs.sort_unstable();
        subs.dedup();
        for &a in &subs {
            self.check_author(u, a)?;
        }
        for &a in &subs {
            self.subscribers[a as usize].push(u);
        }
        self.per_user.push(subs);
        self.active.push(true);
        Ok(u)
    }

    /// Tombstone user `u`: the id stays allocated but the user follows
    /// nothing afterwards. Returns the author list held at removal time.
    pub(crate) fn remove_user(&mut self, u: UserId) -> Result<Vec<AuthorId>, SubscriptionError> {
        self.check_user(u)?;
        let old = std::mem::take(&mut self.per_user[u as usize]);
        for &a in &old {
            self.subscribers[a as usize].retain(|&s| s != u);
        }
        self.active[u as usize] = false;
        Ok(old)
    }

    /// Add a follow edge; returns `false` if it already existed.
    pub(crate) fn subscribe(&mut self, u: UserId, a: AuthorId) -> Result<bool, SubscriptionError> {
        self.check_user(u)?;
        self.check_author(u, a)?;
        let list = &mut self.per_user[u as usize];
        match list.binary_search(&a) {
            Ok(_) => Ok(false),
            Err(pos) => {
                list.insert(pos, a);
                let subs = &mut self.subscribers[a as usize];
                let pos = subs.partition_point(|&s| s < u);
                subs.insert(pos, u);
                Ok(true)
            }
        }
    }

    /// Drop a follow edge; returns `false` if it did not exist.
    pub(crate) fn unsubscribe(
        &mut self,
        u: UserId,
        a: AuthorId,
    ) -> Result<bool, SubscriptionError> {
        self.check_user(u)?;
        self.check_author(u, a)?;
        let list = &mut self.per_user[u as usize];
        match list.binary_search(&a) {
            Err(_) => Ok(false),
            Ok(pos) => {
                list.remove(pos);
                self.subscribers[a as usize].retain(|&s| s != u);
                Ok(true)
            }
        }
    }

    /// Mean subscriptions per user (over all user slots).
    pub fn mean_subscriptions(&self) -> f64 {
        if self.per_user.is_empty() {
            return 0.0;
        }
        let total: usize = self.per_user.iter().map(Vec::len).sum();
        total as f64 / self.per_user.len() as f64
    }

    /// Median subscriptions per user (0 when there are no users).
    pub fn median_subscriptions(&self) -> usize {
        if self.per_user.is_empty() {
            return 0;
        }
        let mut sizes: Vec<usize> = self.per_user.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }

    /// Serialize the whole relation (author universe, per-user author lists,
    /// tombstone flags) — the FHSNAP04 embedded-subscriptions table.
    pub(crate) fn write_table(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        w.write_all(&(self.subscribers.len() as u32).to_le_bytes())?;
        w.write_all(&(self.per_user.len() as u32).to_le_bytes())?;
        for (u, subs) in self.per_user.iter().enumerate() {
            w.write_all(&[self.active[u] as u8])?;
            w.write_all(&(subs.len() as u32).to_le_bytes())?;
            for &a in subs {
                w.write_all(&a.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Inverse of [`write_table`](Self::write_table).
    pub(crate) fn read_table(
        r: &mut dyn std::io::Read,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let author_count = u32::from_le_bytes(b4) as usize;
        r.read_exact(&mut b4)?;
        let user_count = u32::from_le_bytes(b4) as usize;
        let mut per_user = Vec::with_capacity(user_count.min(crate::snapshot::MAX_PREALLOC));
        let mut active = Vec::with_capacity(user_count.min(crate::snapshot::MAX_PREALLOC));
        for _ in 0..user_count {
            let mut b1 = [0u8; 1];
            r.read_exact(&mut b1)?;
            if b1[0] > 1 {
                return Err(SnapshotError::Corrupt {
                    section: "subscriptions",
                    offset: 0,
                });
            }
            active.push(b1[0] == 1);
            r.read_exact(&mut b4)?;
            let len = u32::from_le_bytes(b4) as usize;
            let mut subs = Vec::with_capacity(len.min(crate::snapshot::MAX_PREALLOC));
            let mut prev: Option<AuthorId> = None;
            for _ in 0..len {
                r.read_exact(&mut b4)?;
                let a = u32::from_le_bytes(b4);
                if (a as usize) >= author_count || prev.is_some_and(|p| p >= a) {
                    return Err(SnapshotError::Corrupt {
                        section: "subscriptions",
                        offset: 0,
                    });
                }
                prev = Some(a);
                subs.push(a);
            }
            per_user.push(subs);
        }
        let mut subscribers: Vec<Vec<UserId>> = vec![Vec::new(); author_count];
        for (u, subs) in per_user.iter().enumerate() {
            if !active[u] && !subs.is_empty() {
                return Err(SnapshotError::Corrupt {
                    section: "subscriptions",
                    offset: 0,
                });
            }
            for &a in subs {
                subscribers[a as usize].push(u as UserId);
            }
        }
        Ok(Self {
            per_user,
            subscribers,
            active,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_and_lookup() {
        let subs = Subscriptions::new(4, vec![vec![0, 2], vec![2, 3], vec![]]).unwrap();
        assert_eq!(subs.user_count(), 3);
        assert_eq!(subs.author_count(), 4);
        assert_eq!(subs.authors_of(0), &[0, 2]);
        assert_eq!(subs.subscribers_of(2), &[0, 1]);
        assert_eq!(subs.subscribers_of(1), &[] as &[u32]);
        assert!(subs.is_subscribed(1, 3));
        assert!(!subs.is_subscribed(2, 0));
    }

    #[test]
    fn dedup_and_sort() {
        let subs = Subscriptions::new(3, vec![vec![2, 0, 2, 0]]).unwrap();
        assert_eq!(subs.authors_of(0), &[0, 2]);
        assert_eq!(subs.subscribers_of(0), &[0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Subscriptions::new(2, vec![vec![5]]).unwrap_err();
        assert!(matches!(
            err,
            SubscriptionError::AuthorOutOfRange { author: 5, .. }
        ));
        assert!(err.to_string().contains("author 5"));
    }

    #[test]
    fn stats() {
        let subs = Subscriptions::new(5, vec![vec![0], vec![1, 2, 3], vec![4, 0]]).unwrap();
        assert!((subs.mean_subscriptions() - 2.0).abs() < 1e-12);
        assert_eq!(subs.median_subscriptions(), 2);
        assert_eq!(
            Subscriptions::new(1, Vec::<Vec<u32>>::new())
                .unwrap()
                .median_subscriptions(),
            0
        );
    }

    #[test]
    fn subscribe_and_unsubscribe_maintain_both_indexes() {
        let mut subs = Subscriptions::new(4, vec![vec![0], vec![0, 3]]).unwrap();
        assert_eq!(subs.subscribe(0, 2), Ok(true));
        assert_eq!(subs.subscribe(0, 2), Ok(false), "already subscribed");
        assert_eq!(subs.authors_of(0), &[0, 2]);
        assert_eq!(subs.subscribers_of(2), &[0]);

        assert_eq!(subs.unsubscribe(1, 0), Ok(true));
        assert_eq!(subs.unsubscribe(1, 0), Ok(false), "already gone");
        assert_eq!(subs.authors_of(1), &[3]);
        assert_eq!(subs.subscribers_of(0), &[0]);
    }

    #[test]
    fn add_and_remove_user() {
        let mut subs = Subscriptions::new(4, vec![vec![0]]).unwrap();
        let u = subs.add_user(&[3, 1, 3]).unwrap();
        assert_eq!(u, 1);
        assert_eq!(subs.authors_of(1), &[1, 3]);
        assert!(subs.is_active(1));
        assert_eq!(subs.active_user_count(), 2);

        let old = subs.remove_user(1).unwrap();
        assert_eq!(old, vec![1, 3]);
        assert!(!subs.is_active(1));
        assert_eq!(subs.authors_of(1), &[] as &[u32]);
        assert_eq!(subs.subscribers_of(3), &[] as &[u32]);
        assert_eq!(subs.user_count(), 2, "tombstoned id stays allocated");
        assert_eq!(subs.active_user_count(), 1);

        // Operations on a tombstoned user are typed errors.
        assert_eq!(
            subs.subscribe(1, 0),
            Err(SubscriptionError::UserRemoved { user: 1 })
        );
        assert_eq!(
            subs.remove_user(1),
            Err(SubscriptionError::UserRemoved { user: 1 })
        );
        // Ids are never reused.
        assert_eq!(subs.add_user(&[2]).unwrap(), 2);
    }

    #[test]
    fn mutation_errors_are_typed() {
        let mut subs = Subscriptions::new(2, vec![vec![0]]).unwrap();
        assert_eq!(
            subs.subscribe(7, 0),
            Err(SubscriptionError::UserOutOfRange {
                user: 7,
                user_count: 1
            })
        );
        assert_eq!(
            subs.subscribe(0, 9),
            Err(SubscriptionError::AuthorOutOfRange {
                user: 0,
                author: 9,
                author_count: 2
            })
        );
        assert!(subs.add_user(&[5]).is_err());
    }

    #[test]
    fn table_round_trips_with_tombstones() {
        let mut subs = Subscriptions::new(5, vec![vec![0, 2], vec![1], vec![3, 4]]).unwrap();
        subs.remove_user(1).unwrap();
        subs.subscribe(0, 4).unwrap();
        let mut buf = Vec::new();
        subs.write_table(&mut buf).unwrap();
        let back = Subscriptions::read_table(&mut &buf[..]).unwrap();
        assert_eq!(back.user_count(), 3);
        assert!(!back.is_active(1));
        assert_eq!(back.authors_of(0), subs.authors_of(0));
        assert_eq!(back.subscribers_of(4), subs.subscribers_of(4));

        // Truncations are rejected.
        for cut in 0..buf.len() {
            assert!(Subscriptions::read_table(&mut &buf[..cut]).is_err());
        }
    }
}
