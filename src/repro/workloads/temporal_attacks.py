"""The temporal attack suite: dangling-pointer exploits.

The paper positions spatial checking as one half of complete memory
safety and defers dangling-pointer detection to a companion mechanism;
these programs are the scenarios that companion must stop.  Every
attack here is *invisible to spatial checking by construction*: the
stale pointer's (base, bound) still describe the dead object's extent,
so every dereference is comfortably "in bounds" — what died is the
allocation, not the address range.  Five attack classes:

* **use-after-free read** — the freed block is re-allocated to a new
  owner; the stale pointer reads (leaks) the new owner's data.
* **use-after-free write** — the stale pointer *writes* into the new
  owner, corrupting a function pointer: a control-flow hijack that
  neither SoftBound mode can see spatially.
* **double free** — the same pointer freed twice (the classic allocator
  corruption primitive; this VM's allocator ignores the second free,
  as glibc may, so unprotected runs are silently wrong rather than
  crashed).
* **realloc stale** — ``realloc`` moves the block; a pointer to the old
  location keeps its old bounds and reads whatever re-uses the memory.
* **dangling stack frame** — a function returns the address of a
  local; a later call re-uses the stack region and the dangling read
  observes the new frame's data.

Plus a **key-collision stress**: lock *slots* are recycled after
``free``, so a correct lock-and-key scheme must distinguish a dead
pointer from a new allocation that inherited its slot — keys are never
reused, which the churn loop exercises.

As with the Wilander suite, every attack genuinely works against the
unprotected VM (payload exit :data:`~repro.vm.errors.ATTACK_EXIT_CODE`
or observable leak), runs to the same wrong result under spatial-only
SoftBound, and traps with a ``temporal_violation`` under
``SoftBoundConfig(temporal=True)``.
"""

from collections import OrderedDict
from dataclasses import dataclass

_PAYLOAD = r'''
void attack_payload(void) {
    printf("PWNED\n");
    exit(66);
}
void safe_handler(void) {
    printf("safe\n");
}
'''


@dataclass(frozen=True)
class TemporalAttack:
    name: str
    kind: str
    description: str
    source: str


TEMPORAL_ATTACKS = OrderedDict()


def _register(attack):
    TEMPORAL_ATTACKS[attack.name] = attack
    return attack


_register(TemporalAttack(
    name="uaf_read",
    kind="use_after_free",
    description="freed block re-allocated to a new owner; stale pointer "
                "leaks the new owner's secret",
    source=r'''
int main(void) {
    long *stale = (long *)malloc(32);
    stale[0] = 1111;
    free(stale);
    long *secret = (long *)malloc(32);   /* first-fit: the same block */
    secret[0] = 424242;
    long leaked = stale[0];              /* use-after-free read */
    printf("leaked %ld\n", leaked);
    return leaked == 424242 ? 66 : 0;
}
'''))

_register(TemporalAttack(
    name="uaf_write",
    kind="use_after_free",
    description="stale pointer writes over the new owner's function "
                "pointer: a control-flow hijack spatial checking cannot see",
    source=_PAYLOAD + r'''
struct handler_box { void (*handler)(void); long pad; };
int main(void) {
    long *stale = (long *)malloc(16);
    stale[0] = 0;
    free(stale);
    struct handler_box *box =
        (struct handler_box *)malloc(sizeof(struct handler_box));
    box->handler = safe_handler;
    stale[0] = (long)attack_payload;     /* use-after-free write */
    box->handler();
    return 0;
}
'''))

_register(TemporalAttack(
    name="double_free",
    kind="double_free",
    description="the same allocation freed twice (this VM's allocator, "
                "like glibc in some modes, silently ignores the second "
                "free; temporal checking traps it)",
    source=r'''
int main(void) {
    char *a = (char *)malloc(24);
    char *b = (char *)malloc(24);
    a[0] = 'a';
    b[0] = 'b';
    free(a);
    free(a);        /* double free */
    free(b);
    printf("done\n");
    return 0;
}
'''))

_register(TemporalAttack(
    name="realloc_stale",
    kind="realloc_stale",
    description="realloc moves the block; the pre-realloc pointer reads "
                "whatever re-uses the old memory",
    source=r'''
int main(void) {
    long *buf = (long *)malloc(32);
    buf[0] = 7;
    long *alias = buf;
    long *grown = (long *)realloc(buf, 4096);   /* forced to move */
    grown[0] = grown[0] + 1;
    long *fresh = (long *)malloc(32);   /* lands on the old block */
    fresh[0] = 999;
    long v = alias[0];                  /* stale read through old block */
    printf("stale %ld\n", v);
    return v == 999 ? 66 : 0;
}
'''))

_register(TemporalAttack(
    name="dangling_stack",
    kind="dangling_stack",
    description="a function returns the address of a local; a later call "
                "re-uses the stack region and the dangling read observes "
                "the new frame",
    source=r'''
long *make(void) {
    long local[4];
    local[0] = 5;
    return local;       /* dangling: the frame dies at return */
}
long clobber(long x) {
    long other[4];      /* same frame shape: lands on make's local */
    other[0] = x;
    return other[0];
}
int main(void) {
    long *p = make();
    clobber(777);
    long v = *p;        /* dangling stack read */
    printf("dangling %ld\n", v);
    return v == 777 ? 66 : 0;
}
'''))

_register(TemporalAttack(
    name="key_collision_stress",
    kind="key_collision",
    description="malloc/free churn recycles lock slots; a stale pointer "
                "whose slot now holds a fresh allocation's key must still "
                "trap (keys are never reused)",
    source=r'''
int main(void) {
    long *stale = (long *)malloc(32);
    stale[0] = 1;
    free(stale);
    long total = 0;
    for (int i = 0; i < 64; i++) {      /* recycle lock slots hard */
        long *p = (long *)malloc(32);
        p[0] = i;
        total += p[0];
        free(p);
    }
    long *live = (long *)malloc(32);    /* same block, recycled slot */
    live[0] = 31337;
    long v = stale[0];                  /* dead key, live slot */
    printf("v %ld total %ld\n", v, total);
    return v == 31337 ? 66 : 0;
}
'''))


def all_temporal_attacks():
    return list(TEMPORAL_ATTACKS.values())
