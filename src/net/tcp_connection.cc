#include "src/net/tcp_connection.hh"

#include <algorithm>

#include "src/sim/logging.hh"
#include "src/sim/trace.hh"

namespace na::net {

std::string_view
tcpStateName(TcpState s)
{
    switch (s) {
      case TcpState::Closed:      return "CLOSED";
      case TcpState::SynSent:     return "SYN_SENT";
      case TcpState::SynRcvd:     return "SYN_RCVD";
      case TcpState::Established: return "ESTABLISHED";
      case TcpState::FinWait1:    return "FIN_WAIT1";
      case TcpState::FinWait2:    return "FIN_WAIT2";
      case TcpState::CloseWait:   return "CLOSE_WAIT";
      case TcpState::LastAck:     return "LAST_ACK";
      case TcpState::Closing:     return "CLOSING";
      case TcpState::TimeWait:    return "TIME_WAIT";
      default:                    return "?";
    }
}

std::string
Segment::describe() const
{
    std::string f;
    if (syn())
        f += "S";
    if (hasAck())
        f += ".";
    if (fin())
        f += "F";
    if (rst())
        f += "R";
    return sim::format("seq=%llu ack=%llu len=%u wnd=%u [%s]",
                       (unsigned long long)seq, (unsigned long long)ack,
                       len, wnd, f.c_str());
}

TcpConnection::TcpConnection(const TcpConfig &config) : cfg(config)
{
    cwnd = cfg.initialCwndSegs * cfg.mss;
    ssthresh = 0x7fffffff;
    lastAdvertisedWnd = cfg.rcvWndBytes;
}

std::uint64_t
TcpConnection::rcvNxt0Delta() const
{
    if (rcvNxt < irs0)
        return 0;
    std::uint64_t d = rcvNxt - irs0;
    if (peerFinDelivered)
        --d; // FIN consumed one sequence number, not a payload byte
    return d;
}

std::uint32_t
TcpConnection::inFlight() const
{
    std::uint64_t fl = sndNxt - sndUna;
    // Exclude SYN/FIN sequence space from the data-inflight estimate.
    if (!synAcked && sndNxt > iss)
        fl = fl > 0 ? fl - 1 : 0;
    if (finSent && sndNxt > finSeq && sndUna <= finSeq)
        fl = fl > 0 ? fl - 1 : 0;
    return static_cast<std::uint32_t>(fl);
}

std::uint32_t
TcpConnection::advertisedWindow() const
{
    const std::uint64_t unconsumed = rcvNxt0Delta() - consumed;
    if (unconsumed >= cfg.rcvWndBytes)
        return 0;
    return cfg.rcvWndBytes - static_cast<std::uint32_t>(unconsumed);
}

void
TcpConnection::openActive()
{
    if (st != TcpState::Closed)
        sim::panic("openActive in state %s",
                   std::string(tcpStateName(st)).c_str());
    iss = 1;
    sndUna = iss;
    sndNxt = iss; // SYN emitted by pullSegments advances this
    iss0 = iss + 1;
    sndPushed = iss0;
    st = TcpState::SynSent;
}

void
TcpConnection::openPassive()
{
    if (st != TcpState::Closed)
        sim::panic("openPassive in state %s",
                   std::string(tcpStateName(st)).c_str());
    iss = 1;
    sndUna = iss;
    sndNxt = iss;
    iss0 = iss + 1;
    sndPushed = iss0;
    // Stay in Closed until the SYN arrives; onSegment handles it.
    listening = true;
}

void
TcpConnection::close()
{
    if (st == TcpState::Closed || finQueued || finSent)
        return;
    finQueued = true;
}

void
TcpConnection::abort()
{
    // Emit an RST only if the peer believes a connection exists.
    rstPending = st != TcpState::Closed && !listening;
    st = TcpState::Closed;
    listening = false;
    rtoAt = sim::maxTick;
    ooo.clear(); // a still-open reordering window closes with us
    maybeCloseOooWindow();
    irsKnown = false;
    rtxMarks.clear();
}

std::uint32_t
TcpConnection::sndBufSpace() const
{
    const std::uint64_t buffered = sndPushed - sndUnaData();
    if (buffered >= cfg.sndBufBytes)
        return 0;
    return cfg.sndBufBytes - static_cast<std::uint32_t>(buffered);
}

std::uint64_t
TcpConnection::sndUnaData() const
{
    // First unacked payload byte (skip SYN's sequence slot).
    return sndUna < iss0 ? iss0 : sndUna;
}

std::uint32_t
TcpConnection::appendSendData(std::uint32_t bytes)
{
    const std::uint32_t space = sndBufSpace();
    const std::uint32_t n = std::min(bytes, space);
    sndPushed += n;
    appended += n;
    return n;
}

std::uint64_t
TcpConnection::bytesOutstanding() const
{
    return sndPushed - sndUnaData();
}

std::uint32_t
TcpConnection::readableBytes() const
{
    return static_cast<std::uint32_t>(rcvNxt0Delta() - consumed);
}

std::uint32_t
TcpConnection::consume(std::uint32_t bytes)
{
    const std::uint32_t n = std::min(bytes, readableBytes());
    consumed += n;
    const std::uint32_t adv = advertisedWindow();
    if (adv > lastAdvertisedWnd &&
        adv - lastAdvertisedWnd >=
            static_cast<std::uint32_t>(cfg.wndUpdateFrac *
                                       cfg.rcvWndBytes)) {
        ackNow = true;
    }
    return n;
}

void
TcpConnection::enterEstablished()
{
    st = TcpState::Established;
    synAcked = true;
    cwnd = cfg.initialCwndSegs * cfg.mss;
}

sim::Tick
TcpConnection::effectiveRto() const
{
    if (srtt == 0)
        return cfg.rtoTicks;
    const sim::Tick est = srtt + 4 * rttvar;
    if (est < cfg.rtoTicks)
        return cfg.rtoTicks;
    if (est > cfg.rtoMaxTicks)
        return cfg.rtoMaxTicks;
    return est;
}

void
TcpConnection::armRto(sim::Tick now)
{
    rtoAt = now + (effectiveRto() << rtoBackoff);
}

void
TcpConnection::maybeStartRttSample(std::uint64_t end_seq, sim::Tick now)
{
    if (rttSampling)
        return;
    rttSampling = true;
    rttSeq = end_seq;
    rttSentAt = now;
}

void
TcpConnection::updateRttOnAck(std::uint64_t ack, sim::Tick now)
{
    if (!rttSampling || ack < rttSeq)
        return;
    rttSampling = false;
    const sim::Tick sample = now > rttSentAt ? now - rttSentAt : 0;
    if (srtt == 0) {
        srtt = sample;
        rttvar = sample / 2;
    } else {
        // Jacobson/Karels with alpha = 1/8, beta = 1/4.
        const sim::Tick err =
            sample > srtt ? sample - srtt : srtt - sample;
        rttvar = rttvar - rttvar / 4 + err / 4;
        srtt = srtt - srtt / 8 + sample / 8;
    }
}

void
TcpConnection::maybeDisarmRto()
{
    if (sndUna == sndNxt)
        rtoAt = sim::maxTick;
}

Segment
TcpConnection::makeAck() const
{
    Segment s;
    s.seq = sndNxt;
    s.ack = rcvNxt;
    s.wnd = advertisedWindow();
    s.flags = flagAck;
    s.tsVal = clockNow;
    s.tsEcho = tsRecent;
    return s;
}

void
TcpConnection::pushAck(std::vector<Segment> &out)
{
    out.push_back(makeAck());
    lastAdvertisedWnd = out.back().wnd;
    segsSinceAck = 0;
    delayedAckPending = false;
    ackNow = false;
}

Segment
TcpConnection::makeDataSegment(std::uint64_t seq, std::uint32_t len) const
{
    Segment s;
    s.seq = seq;
    s.ack = rcvNxt;
    s.len = len;
    s.wnd = advertisedWindow();
    s.flags = flagAck;
    s.tsVal = clockNow;
    s.tsEcho = tsRecent;
    return s;
}

void
TcpConnection::advanceCwndOnAck(std::uint64_t acked_bytes)
{
    if (cwnd < ssthresh) {
        // Slow start: one MSS per ACK (bounded by bytes acked).
        cwnd += static_cast<std::uint32_t>(
            std::min<std::uint64_t>(acked_bytes, cfg.mss));
    } else {
        // Congestion avoidance: ~one MSS per RTT.
        const std::uint64_t inc =
            static_cast<std::uint64_t>(cfg.mss) * cfg.mss /
            std::max<std::uint32_t>(cwnd, 1);
        cwnd += static_cast<std::uint32_t>(std::max<std::uint64_t>(inc, 1));
    }
    // Keep cwnd bounded; growth beyond the receive window is useless.
    cwnd = std::min<std::uint32_t>(cwnd, 4 * cfg.rcvWndBytes + 4 * cfg.mss);
}

void
TcpConnection::onAck(const Segment &seg, sim::Tick now,
                     std::vector<Segment> &replies)
{
    rwnd = seg.wnd;
    noteTsRecent(seg);

    if (seg.ack > sndNxt)
        return; // acks data we never sent; ignore

    if (seg.ack > sndUna) {
        processEifelOnAck(seg);
        updateRttOnAck(seg.ack, now);
        const std::uint64_t acked = seg.ack - sndUna;
        sndUna = seg.ack;
        dupAcks = 0;
        rtoBackoff = 0;
        fastRetransmitPending = false;
        advanceCwndOnAck(acked);
        if (sndUna < sndNxt)
            armRto(now);
        else
            maybeDisarmRto();

        if (finSent && sndUna > finSeq) {
            // Our FIN is acked.
            switch (st) {
              case TcpState::FinWait1:
                st = TcpState::FinWait2;
                break;
              case TcpState::Closing:
                st = TcpState::TimeWait;
                break;
              case TcpState::LastAck:
                st = TcpState::Closed;
                break;
              default:
                break;
            }
        }
    } else if (seg.ack == sndUna && seg.len == 0 && !seg.syn() &&
               !seg.fin() && sndNxt > sndUna) {
        ++dupAcks;
        ++dupAcksSeen;
        if (dupAcks == 1)
            ++dupAckBursts;
        if (dupAcks == 3) {
            ssthresh = std::max<std::uint32_t>(inFlight() / 2,
                                               2 * cfg.mss);
            cwnd = ssthresh;
            fastRetransmitPending = true;
        }
    }
    (void)replies;
}

void
TcpConnection::deliverInOrder()
{
    // Single forward pass: the map is keyed by start seq, so rcvNxt
    // only ever grows as we walk, and the first entry starting beyond
    // the (updated) rcvNxt proves every later entry is disjoint too.
    auto it = ooo.begin();
    while (it != ooo.end() && it->first <= rcvNxt) {
        if (it->second > rcvNxt)
            rcvNxt = it->second;
        it = ooo.erase(it);
    }
}

void
TcpConnection::noteTsRecent(const Segment &seg)
{
    // RFC 7323: TS.Recent tracks the newest timestamp from a segment
    // that is in sequence (fills or touches the left window edge).
    // Out-of-order segments must not advance it — their timestamps
    // would otherwise mask the reordering Eifel is built to expose.
    if (seg.tsVal != 0 && seg.seq <= rcvNxt && seg.tsVal >= tsRecent)
        tsRecent = seg.tsVal;
}

void
TcpConnection::recordRtxMark(std::uint64_t end_seq)
{
    // Eifel keys on the *first* retransmission: if even the oldest
    // retransmit was unnecessary, the loss signal was false.
    for (const RtxMark &m : rtxMarks)
        if (m.endSeq == end_seq)
            return;
    rtxMarks.push_back(RtxMark{end_seq, clockNow});
}

void
TcpConnection::processEifelOnAck(const Segment &seg)
{
    for (auto it = rtxMarks.begin(); it != rtxMarks.end();) {
        if (it->endSeq <= seg.ack) {
            // A TSecr predating the first retransmission means the
            // ACK answers the original transmission: the range was
            // reordered, not lost.
            if (seg.tsEcho != 0 && seg.tsEcho < it->rtxTs)
                ++spuriousRetransmits;
            it = rtxMarks.erase(it);
        } else {
            ++it;
        }
    }
}

void
TcpConnection::noteOooDepth()
{
    std::size_t depth = ooo.size(); // >= 1 at every call site
    std::size_t b = 0;
    while (b + 1 < oooDepthBuckets && (depth >> (b + 1)) != 0)
        ++b;
    ++oooDepthHist[b];
}

void
TcpConnection::maybeCloseOooWindow()
{
    if (oooWindowOpen && ooo.empty()) {
        if (clockNow > oooWindowOpenedAt)
            oooWindowTicks += clockNow - oooWindowOpenedAt;
        ++oooWindows;
        oooWindowOpen = false;
    }
}

void
TcpConnection::onData(const Segment &seg, std::vector<Segment> &replies)
{
    if (seg.fin()) {
        peerFinSeen = true;
        peerFinSeq = seg.seq + seg.len;
    }

    if (seg.len > 0) {
        const std::uint64_t seg_end = seg.seq + seg.len;
        if (seg_end <= rcvNxt) {
            // Entirely duplicate: re-ack immediately.
            ackNow = true;
        } else if (seg.seq <= rcvNxt) {
            rcvNxt = seg_end;
            deliverInOrder();
            maybeCloseOooWindow();
            ++segsSinceAck;
            if (seg.len >= cfg.mss && segsSinceAck >= 2) {
                ackNow = true;
            } else {
                delayedAckPending = true;
            }
        } else {
            // Out of order: buffer and duplicate-ack the gap. The
            // first buffered segment opens a reordering window that
            // stays open until the gap fills.
            if (ooo.empty()) {
                oooWindowOpen = true;
                oooWindowOpenedAt = clockNow;
            }
            ++oooArrivals;
            auto [it, inserted] = ooo.emplace(seg.seq, seg_end);
            if (!inserted && seg_end > it->second)
                it->second = seg_end;
            noteOooDepth();
            ackNow = true;
        }
    }

    if (peerFinSeen && !peerFinDelivered && rcvNxt == peerFinSeq) {
        rcvNxt = peerFinSeq + 1;
        peerFinDelivered = true;
        ackNow = true;
        switch (st) {
          case TcpState::Established:
            st = TcpState::CloseWait;
            break;
          case TcpState::FinWait1:
            // FIN crossed ours and ours is unacked -> Closing.
            st = (finSent && sndUna > finSeq) ? TcpState::TimeWait
                                              : TcpState::Closing;
            break;
          case TcpState::FinWait2:
            st = TcpState::TimeWait;
            break;
          default:
            break;
        }
    }

    if (ackNow)
        pushAck(replies);
}

void
TcpConnection::onSegment(const Segment &seg, sim::Tick now,
                         std::vector<Segment> &replies)
{
    clockNow = now;
    if (seg.rst()) {
        abort();
        rstPending = false; // never answer an RST with an RST
        return;
    }

    switch (st) {
      case TcpState::Closed:
        if (listening && seg.syn() && !seg.hasAck()) {
            irs = seg.seq;
            rcvNxt = irs + 1;
            irs0 = rcvNxt;
            irsKnown = true;
            rwnd = seg.wnd;
            st = TcpState::SynRcvd;
            listening = false;
            // SYN-ACK.
            Segment sa;
            sa.seq = iss;
            sa.ack = rcvNxt;
            sa.wnd = advertisedWindow();
            sa.flags = flagSyn | flagAck;
            replies.push_back(sa);
            lastAdvertisedWnd = sa.wnd;
            sndNxt = iss + 1;
            armRto(now);
        }
        return;

      case TcpState::SynSent:
        if (seg.syn() && seg.hasAck() && seg.ack == iss + 1) {
            irs = seg.seq;
            rcvNxt = irs + 1;
            irs0 = rcvNxt;
            irsKnown = true;
            rwnd = seg.wnd;
            sndUna = iss + 1;
            maybeDisarmRto();
            enterEstablished();
            pushAck(replies);
        }
        return;

      case TcpState::SynRcvd:
        if (seg.syn() && !seg.hasAck()) {
            // Retransmitted SYN: our SYN-ACK was lost; resend it.
            Segment sa;
            sa.seq = iss;
            sa.ack = rcvNxt;
            sa.wnd = advertisedWindow();
            sa.flags = flagSyn | flagAck;
            replies.push_back(sa);
            armRto(now);
            return;
        }
        if (seg.hasAck() && seg.ack >= iss + 1) {
            sndUna = std::max(sndUna, static_cast<std::uint64_t>(iss + 1));
            maybeDisarmRto();
            enterEstablished();
            // Fall through into data handling for piggybacked payload.
            if (seg.hasAck())
                onAck(seg, now, replies);
            if (seg.len > 0 || seg.fin())
                onData(seg, replies);
        }
        return;

      default:
        break;
    }

    // Established and later states.
    if (seg.hasAck())
        onAck(seg, now, replies);
    if (seg.len > 0 || seg.fin())
        onData(seg, replies);
}

bool
TcpConnection::hasPendingOutput(sim::Tick now) const
{
    (void)now;
    if (st == TcpState::SynSent && sndNxt == iss)
        return true;
    if (fastRetransmitPending || ackNow)
        return true;
    if (st == TcpState::Established || st == TcpState::CloseWait ||
        st == TcpState::FinWait1 || st == TcpState::LastAck) {
        const std::uint64_t avail = sndPushed - std::max(sndNxt, iss0);
        const std::uint32_t wnd = std::min(cwnd, rwnd);
        if (avail > 0 && inFlight() < wnd) {
            const std::uint32_t len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(avail, cfg.mss));
            if (len >= cfg.mss || !cfg.nagle || inFlight() == 0)
                return true;
        }
        if (finQueued && !finSent && sndNxt >= sndPushed)
            return true;
    }
    return false;
}

std::vector<Segment>
TcpConnection::pullSegments(sim::Tick now)
{
    std::vector<Segment> out;
    pullSegments(now, out);
    return out;
}

void
TcpConnection::pullSegments(sim::Tick now, std::vector<Segment> &out)
{
    clockNow = now;
    if (rstPending) {
        Segment rst;
        rst.seq = sndNxt;
        rst.flags = flagRst;
        out.push_back(rst);
        rstPending = false;
        return;
    }

    // SYN (first transmission or RTO retransmission).
    if (st == TcpState::SynSent && sndNxt == iss) {
        Segment syn;
        syn.seq = iss;
        syn.wnd = advertisedWindow();
        syn.flags = flagSyn;
        out.push_back(syn);
        sndNxt = iss + 1;
        armRto(now);
        return;
    }

    // SYN-ACK retransmission.
    if (st == TcpState::SynRcvd && synAckPending) {
        Segment sa;
        sa.seq = iss;
        sa.ack = rcvNxt;
        sa.wnd = advertisedWindow();
        sa.flags = flagSyn | flagAck;
        out.push_back(sa);
        lastAdvertisedWnd = sa.wnd;
        synAckPending = false;
        ++retransmits;
        armRto(now);
        return;
    }

    const bool can_send = st == TcpState::Established ||
                          st == TcpState::CloseWait ||
                          st == TcpState::FinWait1 ||
                          st == TcpState::LastAck;
    if (!can_send && st != TcpState::FinWait2 &&
        st != TcpState::TimeWait) {
        if (ackNow)
            pushAck(out);
        return;
    }

    // Retransmission first (fast retransmit or RTO).
    if (fastRetransmitPending && sndUna >= iss0 && sndUna < sndPushed) {
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sndPushed - sndUna, cfg.mss));
        out.push_back(makeDataSegment(sndUna, len));
        lastAdvertisedWnd = out.back().wnd;
        segsSinceAck = 0;
        delayedAckPending = false;
        ackNow = false;
        fastRetransmitPending = false;
        ++retransmits;
        recordRtxMark(sndUna + len);
        rttSampling = false; // Karn: retransmitted data gives no sample
        armRto(now);
    } else if (fastRetransmitPending && finSent && sndUna == finSeq) {
        // Only the FIN is outstanding: retransmit it.
        Segment fin;
        fin.seq = finSeq;
        fin.ack = rcvNxt;
        fin.wnd = advertisedWindow();
        fin.flags = flagFin | flagAck;
        fin.tsVal = clockNow;
        fin.tsEcho = tsRecent;
        out.push_back(fin);
        lastAdvertisedWnd = fin.wnd;
        fastRetransmitPending = false;
        ++retransmits;
        armRto(now);
    }

    if (can_send) {
        // New data within min(cwnd, rwnd) and Nagle's rule.
        while (true) {
            const std::uint64_t send_base = std::max(sndNxt, iss0);
            const std::uint64_t avail =
                sndPushed > send_base ? sndPushed - send_base : 0;
            if (avail == 0)
                break;
            const std::uint32_t wnd = std::min(cwnd, rwnd);
            const std::uint32_t fl = inFlight();
            if (fl >= wnd) {
                if (wnd == 0 && rtoAt == sim::maxTick)
                    armRto(now); // zero-window probe via RTO path
                break;
            }
            std::uint32_t len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(avail, cfg.mss));
            len = std::min(len, wnd - fl);
            if (len < cfg.mss && cfg.nagle && fl > 0 && !finQueued)
                break; // Nagle: hold the partial segment
            if (len == 0)
                break;
            out.push_back(makeDataSegment(send_base, len));
            lastAdvertisedWnd = out.back().wnd;
            segsSinceAck = 0;
            delayedAckPending = false;
            ackNow = false;
            sndNxt = send_base + len;
            maybeStartRttSample(sndNxt, now);
            armRto(now);
        }

        // FIN once the buffer drains.
        if (finQueued && !finSent && sndNxt >= sndPushed) {
            Segment fin;
            fin.seq = sndNxt;
            fin.ack = rcvNxt;
            fin.wnd = advertisedWindow();
            fin.flags = flagFin | flagAck;
            fin.tsVal = clockNow;
            fin.tsEcho = tsRecent;
            out.push_back(fin);
            lastAdvertisedWnd = fin.wnd;
            finSeq = sndNxt;
            sndNxt += 1;
            finSent = true;
            st = (st == TcpState::CloseWait) ? TcpState::LastAck
                                             : TcpState::FinWait1;
            armRto(now);
        }
    }

    if (ackNow)
        pushAck(out);
}

void
TcpConnection::onRtoTimer(sim::Tick now)
{
    clockNow = now;
    if (st == TcpState::SynSent) {
        sndNxt = iss; // re-send SYN
        ++retransmits;
        ++rtoBackoff;
        armRto(now);
        return;
    }
    if (st == TcpState::SynRcvd) {
        synAckPending = true;
        ++rtoBackoff;
        armRto(now);
        return;
    }
    if (sndUna >= sndNxt) {
        rtoAt = sim::maxTick;
        return;
    }
    // Classic RTO: collapse to one MSS and retransmit from snd_una.
    if (sim::traceEnabled(sim::TraceFlag::Tcp)) {
        sim::traceLine(sim::TraceFlag::Tcp, now,
                       "RTO: una=%llu nxt=%llu cwnd=%u backoff=%d",
                       (unsigned long long)sndUna,
                       (unsigned long long)sndNxt, cwnd, rtoBackoff);
    }
    ssthresh = std::max<std::uint32_t>(inFlight() / 2, 2 * cfg.mss);
    cwnd = cfg.mss;
    dupAcks = 0;
    fastRetransmitPending = true;
    ++rtoBackoff;
    armRto(now);
}

void
TcpConnection::onDelackTimer(sim::Tick now, std::vector<Segment> &replies)
{
    clockNow = now;
    if (delayedAckPending)
        pushAck(replies);
}

} // namespace na::net
