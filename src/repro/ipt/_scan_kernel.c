/* Columnar packet-scan kernel.
 *
 * An exact C mirror of the pure-Python columnar scan loop in
 * repro/ipt/columnar.py: same wire format, same truncation rules, same
 * error conditions.  The Python wrapper (repro/ipt/scan_kernel.py)
 * compiles this file on demand with the host C compiler and calls
 * ipt_scan through ctypes; when no compiler is available the engine
 * falls back to the pure-Python scan with identical results.
 *
 * Arguments: the stream (data, size) and the scan start (a PSB when
 * the wrapper synced), then the caller-allocated columns: rec_ips,
 * rec_offsets, rec_bit_start, rec_bit_end and rec_sigs (one entry per
 * TIP record), tnt_buf (the packed TNT bitstream), fup_ips, and out[].
 * Columns are allocated at worst-case sizes (every record column entry
 * is a u64 so the wrapper can frombytes() straight into
 * array('Q')/array('L') on LP64 platforms).
 *
 * rec_sigs holds each record's packed TNT signature: the run of TNT
 * bits observed since the previous TIP, under a leading 1 bit.  The
 * run is kept in a register while it is at most 62 bits long (so every
 * signature stays below 2**63); a longer run gets the sentinel 0, and
 * the Python epilogue computes it from the bit-range columns.
 *
 * Scalar outputs land in out[]:
 *
 *   out[0]  final scan position            out[5]  pending-bit-run start
 *   out[1]  packet count                   out[6]  truncated flag
 *   out[2]  TIP record count               out[7]  FUP count
 *   out[3]  packed TNT byte count          out[8]  error offset
 *   out[4]  total TNT bits                 out[9]  error value
 *
 * Return value: 0 = clean scan, 1 = invalid TNT payload, 2 = impossible
 * IP width, 3 = unknown header (desync).  On error the wrapper raises
 * the byte-identical PacketError the Python scan raises.
 */

#include <string.h>

typedef unsigned long long u64;

#define NO_IP (~0ULL)
#define SIG_MAX_BITS 62 /* longest TNT run with an in-register signature */

long ipt_scan(const unsigned char *data, long size, long start,
              u64 *rec_ips, u64 *rec_offsets,
              u64 *rec_bit_start, u64 *rec_bit_end, u64 *rec_sigs,
              unsigned char *tnt_buf, u64 *fup_ips, u64 *out)
{
    static const unsigned char psb[8] = {
        0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02
    };
    long pos = start;
    u64 acc = 0;
    int acc_bits = 0;
    u64 run = 1; /* 1-prefixed signature of the pending TNT run */
    u64 total_bits = 0, pend_start = 0, pkt_count = 0;
    long nrec = 0, ntnt = 0, nfup = 0;
    int truncated = 0;
    u64 last_ip = 0;

    while (pos < size) {
        unsigned char header = data[pos];
        if (header == 0x02) { /* TNT */
            unsigned char payload;
            int width;
            if (pos + 2 > size) { truncated = 1; break; }
            payload = data[pos + 1];
            if (payload <= 1 || payload > 0x7F) {
                out[8] = (u64)pos; out[9] = payload;
                return 1;
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
                out[8] = (u64)pos; out[9] = (u64)width;
                return 2;
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
                rec_offsets[nrec] = (u64)pos;
                rec_bit_start[nrec] = pend_start;
                rec_bit_end[nrec] = total_bits;
                rec_sigs[nrec] = (total_bits - pend_start <= SIG_MAX_BITS)
                    ? run : 0;
                run = 1;
                pend_start = total_bits;
                nrec++;
            } else if (header == 0x1D && !suppressed) { /* FUP */
                fup_ips[nfup++] = ip;
            }
            pkt_count++;
            pos = end;
        } else if (header == 0x00) { /* PAD */
            pos++;
        } else if (header == 0x82 && pos + 8 <= size &&
                   memcmp(data + pos, psb, 8) == 0) {
            last_ip = 0;
            pkt_count++;
            pos += 8;
        } else if (header == 0x23 || header == 0xF3) { /* PSBEND / OVF */
            pkt_count++;
            pos++;
        } else {
            long rem = size - pos;
            if (rem < 8 && memcmp(data + pos, psb, (size_t)rem) == 0) {
                /* buffer ends inside a PSB pattern: clean truncation */
                truncated = 1;
                break;
            }
            out[8] = (u64)pos; out[9] = header;
            return 3;
        }
    }

    if (acc_bits)
        tnt_buf[ntnt++] = (unsigned char)((acc << (8 - acc_bits)) & 0xFF);

    out[0] = (u64)pos;
    out[1] = pkt_count;
    out[2] = (u64)nrec;
    out[3] = (u64)ntnt;
    out[4] = total_bits;
    out[5] = pend_start;
    out[6] = (u64)truncated;
    out[7] = (u64)nfup;
    return 0;
}
