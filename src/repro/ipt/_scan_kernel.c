/* Columnar packet-scan kernel.
 *
 * An exact C mirror of the pure-Python columnar scan loop in
 * repro/ipt/columnar.py: same wire format, same truncation rules, same
 * error conditions.  The Python wrapper (repro/ipt/scan_kernel.py)
 * compiles this file on demand with the host C compiler and calls
 * ipt_scan through ctypes; when no compiler is available the engine
 * falls back to the pure-Python scan with identical results.
 *
 * Arguments: the stream (data, size), the scan start (a PSB when the
 * wrapper synced), and the caller's arena of u64 words with the
 * per-column capacity (at least one entry per TIP the stream can hold).
 * The kernel lays the arena out itself:
 *
 *   arena[0 .. OUT_WORDS)           scalar outputs, below
 *   then four columns of capacity   TIP ips (NO_IP = IP-suppressed),
 *                                   TIP offsets, signatures, and the
 *                                   TNT bit count at each TIP
 *   then the far column             columnar.py's FAR_HEAD, then room
 *                                   for 2 * capacity FAR_ENTRYs (codes:
 *                                   TIP.PGE 2, TIP.PGD 3, FUP 4, PSBEND
 *                                   7, OVF 8, FAR_GROUP)
 *   then bytes                      the packed TNT bitstream (MSB-first)
 *
 * A signature is the run of TNT bits observed since the previous TIP,
 * under a leading 1 bit.  The run is kept in a register while it is at
 * most 62 bits long (so every signature stays below 2**63); a longer
 * run gets the sentinel 0, and the wrapper computes it from the bit
 * counts and the packed bitstream.
 *
 *   out[0]  final scan position            out[5]  sentinel signatures
 *   out[1]  packet count                   out[6]  dangling-run signature
 *   out[2]  TIP record count                       (sentinel 0 past 62 bits)
 *   out[3]  truncated flag                 out[7]  dangling-run start bit
 *   out[4]  IP-suppressed TIPs             out[8]  total TNT bits
 *
 * Return value: the number of far entries after a clean scan; -1 =
 * invalid TNT payload, -2 = impossible IP width, -3 = unknown header
 * (desync).  On error out[0] holds the offending offset and out[1] the
 * bad byte; the wrapper raises the byte-identical PacketError the
 * Python scan raises.
 */

#include <string.h>

typedef unsigned long long u64;

#define NO_IP (~0ULL)
#define SIG_MAX_BITS 62 /* longest TNT run with an in-register signature */
#define OUT_WORDS 9
#define FAR_GROUP 10

/* Append a far entry; returns the new entry count. */
static long far_entry(u64 *far, long nfar, u64 key, long pos, int code,
                      u64 ip)
{
    u64 *entry = far + 4 + 4 * nfar;
    entry[0] = key;
    entry[1] = ((u64)pos << 4) | (u64)code;
    entry[2] = ip;
    entry[3] = NO_IP;
    return nfar + 1;
}

long ipt_scan(const unsigned char *data, long size, long start,
              u64 *arena, long capacity)
{
    static const unsigned char psb[8] = {
        0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02
    };
    u64 *out = arena;
    u64 *rec_ips = arena + OUT_WORDS;
    u64 *rec_offsets = rec_ips + capacity;
    u64 *rec_sigs = rec_offsets + capacity;
    u64 *rec_bits = rec_sigs + capacity;
    u64 *far = rec_bits + capacity;
    unsigned char *tnt_buf = (unsigned char *)(far + 4 + 8 * capacity);
    long pos = start;
    u64 acc = 0;
    int acc_bits = 0;
    u64 run = 1; /* 1-prefixed signature of the pending TNT run */
    u64 total_bits = 0, pend_start = 0, pkt_count = 0;
    u64 suppressed_count = 0, sentinels = 0;
    long nrec = 0, ntnt = 0, nfar = 0;
    int truncated = 0, anchored = 0, in_psb = 0;
    long fup_at = -3; /* packet count at the last FUP entry with an IP */
    u64 last_ip = 0;

    far[0] = NO_IP; /* no anchor yet */
    far[1] = far[2] = far[3] = 0;

    while (pos < size) {
        unsigned char header = data[pos];
        if (header == 0x02) { /* TNT */
            unsigned char payload;
            int width;
            if (pos + 2 > size) { truncated = 1; break; }
            payload = data[pos + 1];
            if (payload <= 1 || payload > 0x7F) {
                out[0] = (u64)pos; out[1] = payload;
                return -1;
            }
            width = 31 - __builtin_clz(payload); /* bit_length - 1 */
            acc = (acc << width) | (payload ^ (1u << width));
            /* past SIG_MAX_BITS the register only loses high bits */
            run = (run << width) | (payload ^ (1u << width));
            acc_bits += width;
            total_bits += (u64)width;
            while (acc_bits >= 8) {
                acc_bits -= 8;
                tnt_buf[ntnt++] = (unsigned char)((acc >> acc_bits) & 0xFF);
            }
            acc &= (1u << acc_bits) - 1;
            pkt_count++;
            pos += 2;
        } else if (header == 0x0D || header == 0x11 ||
                   header == 0x21 || header == 0x1D) {
            /* TIP / TIP.PGE / TIP.PGD / FUP */
            int width, suppressed, i;
            long end;
            u64 ip = 0;
            if (pos + 2 > size) { truncated = 1; break; }
            width = data[pos + 1];
            if (width > 8) {
                out[0] = (u64)pos; out[1] = (u64)width;
                return -2;
            }
            end = pos + 2 + width;
            if (end > size) { truncated = 1; break; }
            suppressed = (width == 0);
            if (!suppressed) {
                u64 mask = (width == 8)
                    ? NO_IP : ((1ULL << (8 * width)) - 1);
                u64 low = 0;
                for (i = width - 1; i >= 0; i--)
                    low = (low << 8) | data[pos + 2 + i];
                ip = (last_ip & ~mask) | low;
                last_ip = ip;
            }
            if (header == 0x0D) { /* TIP */
                rec_ips[nrec] = suppressed ? NO_IP : ip;
                suppressed_count += (u64)suppressed;
                rec_offsets[nrec] = (u64)pos;
                if (total_bits - pend_start <= SIG_MAX_BITS) {
                    rec_sigs[nrec] = run;
                } else {
                    rec_sigs[nrec] = 0;
                    sentinels++;
                }
                rec_bits[nrec] = total_bits;
                run = 1;
                pend_start = total_bits;
                nrec++;
            } else {
                int code = header == 0x11 ? 2 : header == 0x21 ? 3 : 4;
                u64 bit = total_bits - pend_start;
                u64 *last = far + 4 * nfar; /* the last entry */
                if (in_psb) {
                    /* context: no entry; a FUP may be the anchor */
                } else if (code == 2 && !suppressed &&
                           (long)pkt_count == fup_at + 2 &&
                           (last[1] & 15) == 3) {
                    /* FUP, TIP.PGD, TIP.PGE: fold into the FUP's entry */
                    nfar--;
                    last[-3] += FAR_GROUP - 4;
                    last[-1] = ip;
                } else {
                    nfar = far_entry(far, nfar, ((u64)nrec << 32) | bit, pos,
                                     code, suppressed ? NO_IP : ip);
                    if (code == 4 && !suppressed)
                        fup_at = (long)pkt_count;
                }
                /* the anchor: a FUP with an IP in a PSB+ group, or a
                 * TIP.PGE with an IP outside one (resuming after it) */
                if (code == (in_psb ? 4 : 2) && !suppressed && !anchored) {
                    far[0] = ip;
                    far[1] = (u64)nrec;
                    far[2] = bit;
                    far[3] = (u64)nfar;
                    anchored = 1;
                }
            }
            pkt_count++;
            pos = end;
        } else if (header == 0x00) { /* PAD */
            pos++;
        } else if (header == 0x82 && pos + 8 <= size &&
                   memcmp(data + pos, psb, 8) == 0) {
            last_ip = 0;
            in_psb = 1;
            pkt_count++;
            pos += 8;
        } else if (header == 0x23 && in_psb) { /* PSBEND closing a group */
            in_psb = 0;
            pkt_count++;
            pos++;
        } else if (header == 0x23 || header == 0xF3) { /* PSBEND / OVF */
            if (!in_psb) /* a stray PSBEND, or an OVF */
                nfar = far_entry(far, nfar,
                                 ((u64)nrec << 32) | (total_bits - pend_start),
                                 pos, header == 0x23 ? 7 : 8, NO_IP);
            pkt_count++;
            pos++;
        } else {
            long rem = size - pos;
            if (rem < 8 && memcmp(data + pos, psb, (size_t)rem) == 0) {
                /* buffer ends inside a PSB pattern: clean truncation */
                truncated = 1;
                break;
            }
            out[0] = (u64)pos; out[1] = header;
            return -3;
        }
    }

    if (acc_bits)
        tnt_buf[ntnt] = (unsigned char)((acc << (8 - acc_bits)) & 0xFF);

    out[0] = (u64)pos;
    out[1] = pkt_count;
    out[2] = (u64)nrec;
    out[3] = (u64)truncated;
    out[4] = suppressed_count;
    out[5] = sentinels;
    out[6] = (total_bits - pend_start <= SIG_MAX_BITS) ? run : 0;
    out[7] = pend_start;
    out[8] = total_bits;
    return nfar;
}
